"""The three benchmark workloads: generated inputs, the CLI invocations that
make up one task, and the oracle check of the task's outputs.

A task runs in its own directory.  ``invocations`` writes the task's inputs
there and returns the argument lists for ``python -m exwave.cli``; ``check``
reads the outputs back and raises :class:`CheckFailed` when one is wrong.
The reference values below are the benchmark's own copy of the published
numbers; they are deliberately not imported from ``exwave.verify``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

NU0 = 1.86
CELL_TOL = 5e-5

# Published table: per row k, (y_k, lambda_k, min g, cumulative product, contribution).
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

# simulate: 8001 radii x 3201 levels of the static ground state W.
SIM_ARGS = ["--preset", "ground-state", "--rmin", "1", "--rmax", "41",
            "--dr", "0.005", "--T", "16"]
SIM_T = 16.0
SIM_RADII = 8001
SIM_ZERO_TOL = 1e-12     # t = 0 snapshot against W (CSV keeps 12 digits)
SIM_ENERGY_RTOL = 1e-3   # the test suite's relative energy-drift bound
# W is linearly unstable, so the O(dr^2) discretisation error grows like
# exp(0.53 t): 1.0e-6 at t = 2 and 1.35e-3 at t = 16 at the seed commit.
# 1e-2 leaves a factor 7 for that growth and still sits two orders of
# magnitude below W itself (0.06 to 0.8 on the grid), so a wrong scheme,
# boundary or nonlinearity fails it.
SIM_DISTANCE_TOL = 1e-2

# radiation: the bump (1 - x^2)^3 times a seeded quadratic, x = s / 1.5.
RAD_HALF = 1.5
RAD_SAMPLES = 601
RAD_N = "2001"
RAD_ALPHA_TOL = 1e-6
RAD_ROUND_TRIP_TOL = 5e-3  # the test suite's sampled round-trip bound


class CheckFailed(Exception):
    """A task's output disagrees with the workload's oracle."""


def verdict(workload, task_dir: Path, seed: int, index: int):
    """None when the task's outputs pass the workload's check, else the reason."""
    try:
        workload.check(task_dir, seed, index)
    except CheckFailed as exc:
        return str(exc)
    except (LookupError, TypeError, ValueError) as exc:   # output of the wrong shape
        return f"malformed output: {exc!r}"
    return None


def _read_csv(path: Path, n_cols: int) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from exc
    if data.shape[1] != n_cols:
        raise CheckFailed(f"{path.name}: expected {n_cols} columns, got {data.shape[1]}")
    return data


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from exc


def _g(z: float) -> float:
    return 2.0 * z - abs(z) ** (4.0 / 3.0) * z


def _sup_phi_from_g_minus(g_minus: float) -> float:
    """The z > 2^(3/4) with g(z) = -g_minus; g decreases there."""
    lo, hi = 2.0 ** 0.75, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _g(mid) > -g_minus:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Verify:
    """``exwave verify --out report.json --table table.csv`` at default tolerances."""

    name = "verify"
    budget_s = 30.0
    outputs = ("report.json", "table.csv")

    def __init__(self):
        self._first = None  # bytes of the first passing task's outputs

    def invocations(self, task_dir: Path, seed: int, index: int):
        # nu0 is fixed by the paper, so this workload has no seeded input.
        return [["verify", "--out", "report.json", "--table", "table.csv"]]

    def check(self, task_dir: Path, seed: int, index: int) -> None:
        report = _read_json(task_dir / "report.json")
        failing = [item["name"] for item in report["items"] if not item["pass"]]
        if failing or not report["overall"]:
            raise CheckFailed(f"report items failed: {failing}")
        with open(task_dir / "table.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["k", "range", "y_k", "lambda_k", "min_g", "product", "contribution"]:
            raise CheckFailed(f"table.csv header {rows[0]}")
        table = {int(r[0]): tuple(float(v) for v in r[2:]) for r in rows[1:]}
        if sorted(table) != sorted(REFERENCE_ROWS):
            raise CheckFailed(f"table.csv rows {sorted(table)}")
        for k, ref in REFERENCE_ROWS.items():
            worst = max(abs(c - r) for c, r in zip(table[k], ref))
            if not worst <= CELL_TOL:
                raise CheckFailed(f"table row {k} off by {worst:.3g}")
        footer = _footer(table, report)
        for key, ref in REFERENCE_FOOTER.items():
            if not abs(footer[key] - ref) <= CELL_TOL:
                raise CheckFailed(f"footer {key} = {footer[key]!r}, reference {ref}")
        produced = tuple((task_dir / name).read_bytes() for name in self.outputs)
        if self._first is None:
            self._first = produced
        elif produced != self._first:
            raise CheckFailed("outputs differ from the first task's bytes")


def _footer(table, report) -> dict:
    """Rebuild the footer from the table cells and the reported margin.

    total sums the contributions; g_minus = total - margin; kappa0 follows
    from lambda_1 = nu0 / sqrt(1 + y_1) + kappa0 * g_minus; y0 inverts
    kappa0 = (1 - y0) / (1 + y0); sup_phi solves g(sup_phi) = -g_minus.
    """
    margin = next(item["computed"] for item in report["items"]
                  if item["name"] == "main_inequality_margin")
    total = math.fsum(row[4] for row in table.values())
    g_minus = total - margin
    y1, lam1 = table[1][0], table[1][1]
    kappa0 = (lam1 - NU0 / math.sqrt(1.0 + y1)) / g_minus
    return {
        "sup_phi": _sup_phi_from_g_minus(g_minus),
        "y0": (1.0 - kappa0) / (1.0 + kappa0),
        "kappa0": kappa0,
        "g_minus": g_minus,
        "total": total,
    }


def ground_state(r):
    """W(r) = (1 + r^2 / 15)^(-3/2)."""
    return (1.0 + r * r / 15.0) ** -1.5


class Simulate:
    """The focusing ground-state run on an 8001 x 3201 grid."""

    name = "simulate"
    budget_s = 30.0
    outputs = ("traj.csv", "diag.json")

    def invocations(self, task_dir: Path, seed: int, index: int):
        # The preset is the whole input, so this workload has no seeded input.
        return [["simulate", *SIM_ARGS, "--out", "traj.csv", "--diag", "diag.json"]]

    def check(self, task_dir: Path, seed: int, index: int) -> None:
        diag = _read_json(task_dir / "diag.json")
        if "blowup" in diag:
            raise CheckFailed(f"blow-up reported: {diag['blowup']}")
        energy = np.asarray(diag["energy"], dtype=float)
        if energy.size == 0 or not np.all(np.isfinite(energy)):
            raise CheckFailed("no finite diagnostic energy")
        drift = float(energy.max() - energy.min())
        if not drift <= SIM_ENERGY_RTOL * abs(energy[0]):
            raise CheckFailed(f"energy drift {drift:.3g}")
        t, r, u = _read_csv(task_dir / "traj.csv", 3).T
        if not np.all(np.isfinite(u)):
            raise CheckFailed("non-finite field value")
        times = np.unique(t)
        if times[0] != 0.0 or times[-1] != SIM_T:
            raise CheckFailed(f"snapshots span [{times[0]}, {times[-1]}]")
        for snap in times:
            mask = t == snap
            if mask.sum() != SIM_RADII:
                raise CheckFailed(f"snapshot t={snap} has {mask.sum()} radii")
            dist = float(np.max(np.abs(u[mask] - ground_state(r[mask]))))
            tol = SIM_ZERO_TOL if snap == 0.0 else SIM_DISTANCE_TOL
            if not dist <= tol:
                raise CheckFailed(f"snapshot t={snap} is {dist:.3g} from W (bound {tol})")


def radiation_coefficients(seed: int, index: int) -> np.ndarray:
    """The quadratic's coefficients for task ``index`` of run ``seed``."""
    return np.random.default_rng([seed, index]).uniform(-1.0, 1.0, size=3)


def radiation_profile(coefs, s):
    x = np.asarray(s, dtype=float) / RAD_HALF
    poly = coefs[0] + coefs[1] * x + coefs[2] * x * x
    return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 3 * poly, 0.0)


def radiation_alphas(coefs):
    """Closed forms: alpha1 = -int G ds, alpha2 = int s G ds.

    With int (1-x^2)^3 dx = 32/35 and int x^2 (1-x^2)^3 dx = 32/315 over
    [-1, 1] and ds = 1.5 dx.
    """
    c0, c1, c2 = (float(c) for c in coefs)
    alpha1 = -RAD_HALF * (32.0 / 35.0 * c0 + 32.0 / 315.0 * c2)
    alpha2 = RAD_HALF ** 2 * c1 * 32.0 / 315.0
    return alpha1, alpha2


def write_radiation_input(path: Path, coefs) -> None:
    s = np.linspace(-RAD_HALF, RAD_HALF, RAD_SAMPLES)
    g = radiation_profile(coefs, s)
    lines = ["s,G"] + [f"{a!r},{b!r}" for a, b in zip(s.tolist(), g.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Radiation:
    """to-data, then from-data on its output, then asymptotic on the input."""

    name = "radiation"
    budget_s = 30.0
    outputs = ("data.csv", "back.csv", "alphas.json")

    def invocations(self, task_dir: Path, seed: int, index: int):
        write_radiation_input(task_dir / "profile.csv", radiation_coefficients(seed, index))
        return [
            ["radiation", "to-data", "--in", "profile.csv", "--n", RAD_N, "--out", "data.csv"],
            ["radiation", "from-data", "--in", "data.csv", "--n", RAD_N, "--out", "back.csv"],
            ["radiation", "asymptotic", "--in", "profile.csv", "--out", "alphas.json"],
        ]

    def check(self, task_dir: Path, seed: int, index: int) -> None:
        coefs = radiation_coefficients(seed, index)
        got = _read_json(task_dir / "alphas.json")
        for key, want in zip(("alpha1", "alpha2"), radiation_alphas(coefs)):
            if not abs(got[key] - want) <= RAD_ALPHA_TOL:
                raise CheckFailed(f"{key} = {got[key]!r}, closed form {want!r}")
        n = int(RAD_N)
        if _read_csv(task_dir / "data.csv", 3).shape[0] != n:
            raise CheckFailed(f"data.csv does not have {n} radii")
        back = _read_csv(task_dir / "back.csv", 2)
        if back.shape[0] != n:
            raise CheckFailed(f"back.csv does not have {n} samples")
        s, g = back.T
        inside = np.abs(s) < RAD_HALF
        err = float(np.max(np.abs(g[inside] - radiation_profile(coefs, s[inside]))))
        if not err <= RAD_ROUND_TRIP_TOL:
            raise CheckFailed(f"recovered profile off by {err:.3g} inside the support")


WORKLOADS = {w.name: w for w in (Verify, Simulate, Radiation)}
