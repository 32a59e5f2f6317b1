"""Command-line front end.

Subcommands: constants, profile, table1, verify, radiation, simulate.
Machine-readable output (CSV with 12 significant digits or raw-number JSON)
goes to --out or stdout; a short human summary goes to stderr.  Output files
are written to a temporary name and renamed on success, so a failed run never
leaves a partial file.  Exit codes: 0 success, 1 computation failure,
2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import nonlinearity as nl
from . import pdesim, profiles, radiation, verify

__all__ = ["main", "entry"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-exwave-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _atomic_write(out, text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- subcommands ----------------------------------------------------------------


def _cmd_constants(args) -> int:
    gc = nl.g_constants()
    payload = {
        "z0": gc.z0,
        "z_max": gc.z_max,
        "g_max": gc.g_max,
        "sigma4": nl.SIGMA4,
        "nu0": verify.NU0,
        "nu1": verify.NU1,
        "ground_state_center": nl.ground_state(0.0)[0],
        "ground_state_energy": nl.ground_state_energy(),
    }
    _emit(_json_dumps(payload), args.out)
    _info("closed-form constants emitted")
    return 0


def _cmd_profile(args) -> int:
    prof = profiles.integrate_profile(args.nu, args.tol)
    lines = ["y,phi,dphi,H"]
    h = prof.energy_at(prof.grid)
    for row in zip(prof.grid, prof.phi, prof.dphi, h):
        lines.append(",".join(f"{v:.12g}" for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    _info(f"nu={args.nu}: category={prof.category}, sup_phi={prof.sup_phi:.9g}, "
          f"drift={prof.energy_drift:.3g}")
    return 0


def _cmd_table1(args) -> int:
    rows, summary, _ = verify.build_table1(ode_tol=args.tol, quad_tol=args.tol)
    _emit(verify.table_to_csv(rows, summary), args.out)
    _info(f"total={summary.total:.9g} g_minus={summary.g_minus:.9g} "
          f"margin={summary.total - summary.g_minus:.9g}")
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_all(ode_tol=args.tol, quad_tol=args.tol, nu0=args.nu0)
    _emit(report.to_json(), args.out)
    if args.table is not None:
        if report.table is None:  # the report records the failure; not fatal
            _info(f"table not written: {report.table_error}")
        else:
            _atomic_write(args.table, verify.table_to_csv(*report.table))
    n_pass = sum(1 for i in report.items if i.passed)
    _info(f"{n_pass}/{len(report.items)} checks passed; overall "
          + ("PASS" if report.overall else "FAIL"))
    return 0 if report.overall else 3


def _read_csv_columns(path, n_cols):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns")
    return [data[:, j] for j in range(n_cols)]


def _load_profile(path) -> radiation.RadiationProfile:
    s, g_vals = _read_csv_columns(path, 2)
    return radiation.RadiationProfile.from_samples(s, g_vals)


def _cmd_radiation(args) -> int:
    if args.mode == "to-data":
        G = _load_profile(args.infile)
        hi = max(abs(G.support[0]), abs(G.support[1]))
        r = np.linspace(args.rmin, max(2.0 * hi, args.rmin + 1.0), args.n)
        d = radiation.data_from_profile(G)
        lines = ["r,u0,u1"]
        for ri in r:
            lines.append(f"{ri:.12g},{d.u0(ri):.12g},{d.u1(ri):.12g}")
        _emit("\n".join(lines) + "\n", args.out)
        _info(f"data written on {len(r)} radii")
        return 0
    if args.mode == "from-data":
        r, u0_vals, u1_vals = _read_csv_columns(args.infile, 3)
        d = radiation.RadialData.from_samples(r, u0_vals, u1_vals, tail="r3")
        G = radiation.profile_from_data(d)
        s = np.linspace(G.support[0], G.support[1], args.n)
        lines = ["s,G"]
        for si in s:
            lines.append(f"{si:.12g},{G.value(si):.12g}")
        _emit("\n".join(lines) + "\n", args.out)
        _info(f"profile written on {len(s)} samples")
        return 0
    G = _load_profile(args.infile)
    if args.mode == "residues":
        pair = radiation.residues(G, args.R)
        payload = {"tau1": pair.tau1, "tau2": pair.tau2, "radius": pair.radius}
    else:  # asymptotic
        a1, a2 = radiation.asymptotic_numbers(G)
        payload = {"alpha1": a1, "alpha2": a2}
    _emit(_json_dumps(payload), args.out)
    _info(f"{args.mode} computed")
    return 0


def _parse_gspec(spec: str):
    """Named closed-form profiles: 'bump:lo:hi[:amp]' (C^2 bump) or
    'box:lo:hi[:amp]' (indicator)."""
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("bump", "box") or len(parts) not in (3, 4):
        raise ValueError(f"bad G-spec {spec!r}; use bump:lo:hi[:amp] or box:lo:hi[:amp]")
    lo, hi = float(parts[1]), float(parts[2])
    amp = float(parts[3]) if len(parts) == 4 else 1.0
    if hi <= lo:
        raise ValueError("G-spec needs lo < hi")
    if kind == "box":
        def fn(s):
            s = np.asarray(s, dtype=float)
            return amp * ((s >= lo) & (s <= hi)).astype(float)
        return radiation.RadiationProfile.from_function(fn, support=(lo, hi))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(s):
        s = np.asarray(s, dtype=float)
        x = (s - mid) / half
        core = np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 3, 0.0)
        return amp * core

    return radiation.RadiationProfile.from_function(fn, support=(lo, hi), smooth=True)


def _cmd_simulate(args) -> int:
    boundary = "domain-of-dependence"
    bv = None
    if (args.preset is None) == (args.data is None):
        raise ValueError("exactly one of --preset and --data is required")
    if args.data is not None:
        r, u0_vals, u1_vals = _read_csv_columns(args.data, 3)
        d = radiation.RadialData.from_samples(r, u0_vals, u1_vals)
        nonlin = "focusing"
    elif args.preset == "ground-state":
        def u0(r):
            return nl.ground_state(r)[0]

        def u1(r):
            return np.zeros_like(np.asarray(r, dtype=float))

        d = radiation.RadialData(u0=u0, u1=u1, du0=lambda r: nl.ground_state(r)[1],
                                 decay=3.0)
        boundary = "dirichlet-exact"
        bv = lambda r, t: nl.ground_state(r)[0]
        nonlin = "focusing"
    elif args.preset == "free-wave":
        G = _parse_gspec(args.gspec)
        d = radiation.data_from_profile(G)
        boundary = "dirichlet-exact"
        bv = lambda r, t: radiation.free_wave(G, r, t)
        nonlin = "linear"
    elif args.preset == "self-similar":
        nu = args.nu
        def u0(r):
            return np.zeros_like(np.asarray(r, dtype=float))

        def u1(r):
            return nu * np.asarray(r, dtype=float) ** (-2.5)

        d = radiation.RadialData(u0=u0, u1=u1,
                                 du0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                 decay=2.5)
        nonlin = "focusing"
    else:
        raise ValueError(f"unknown preset {args.preset!r}")

    cfg = pdesim.SimConfig(r_min=args.rmin, r_max=args.rmax, dr=args.dr, T=args.T,
                           cfl=args.cfl, nonlinearity=nonlin, boundary=boundary,
                           boundary_values=bv)
    tr = pdesim.simulate(d, cfg)
    n_snap = min(len(tr.times), 9)
    snap_idx = sorted({int(round(k * (len(tr.times) - 1) / max(n_snap - 1, 1)))
                       for k in range(n_snap)})
    lines = ["t,r,u"]
    for n in snap_idx:
        u = tr.u_level(n)
        for ri, ui in zip(tr.r, u):
            lines.append(f"{tr.times[n]:.12g},{ri:.12g},{ui:.12g}")
    _emit("\n".join(lines) + "\n", args.out)

    diag = {"times": [], "energy": [], "virial": []}
    for n in snap_idx:
        t = float(tr.times[n])
        if n >= len(tr.times) - 1 and n > 0:
            continue
        diag["times"].append(t)
        diag["energy"].append(pdesim.energy(tr, t, args.rmin))
        scale = tr.r[-1] / 3.0
        j, jp, jpp = pdesim.virial(tr, t, scale)
        diag["virial"].append([j, jp, jpp])
    if args.preset == "free-wave":
        try:
            s_lo, s_hi = -1.0, 1.0
            ss = np.linspace(s_lo, s_hi, 9)
            diag["extracted_profile"] = [[float(s), pdesim.extract_outgoing(tr, float(s))]
                                         for s in ss]
        except pdesim.ConeCoverageError as exc:
            diag["extracted_profile_error"] = str(exc)
    if tr.blowup is not None:
        diag["blowup"] = {"time": tr.blowup.time, "radius": tr.blowup.radius}
    if args.diag is not None:
        _atomic_write(args.diag, _json_dumps(diag))
    _info(f"simulated {len(tr.times)} levels on {len(tr.r)} radii"
          + (f"; BLOW-UP at t={tr.blowup.time}" if tr.blowup else ""))
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="exwave",
                                description="Numerics for the radial focusing "
                                            "energy-critical wave equation in 5D")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print closed-form constants as JSON")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_constants)

    pr = sub.add_parser("profile", help="integrate a self-similar profile to CSV")
    pr.add_argument("--nu", type=float, required=True)
    pr.add_argument("--tol", type=float, default=1e-12)
    pr.add_argument("--out")
    pr.set_defaults(fn=_cmd_profile)

    tb = sub.add_parser("table1", help="build the verification table as CSV")
    tb.add_argument("--tol", type=float, default=verify.ODE_TOL)
    tb.add_argument("--out")
    tb.set_defaults(fn=_cmd_table1)

    vf = sub.add_parser("verify", help="run every check; exit 0 iff all pass")
    vf.add_argument("--tol", type=float, default=verify.ODE_TOL)
    vf.add_argument("--out")
    vf.add_argument("--table", help="also write the table CSV here")
    vf.add_argument("--nu0", type=float, default=verify.NU0,
                    help="profile slope for the pipeline (sensitivity probe)")
    vf.set_defaults(fn=_cmd_verify)

    rd = sub.add_parser("radiation", help="profile/data conversions and moments")
    rd.add_argument("mode", choices=["to-data", "from-data", "residues", "asymptotic"])
    rd.add_argument("--in", dest="infile", required=True)
    rd.add_argument("--R", type=float, default=1.0)
    rd.add_argument("--rmin", type=float, default=0.1)
    rd.add_argument("--n", type=int, default=201)
    rd.add_argument("--out")
    rd.set_defaults(fn=_cmd_radiation)

    sm = sub.add_parser("simulate", help="run the exterior finite-difference solver")
    sm.add_argument("--preset", choices=["ground-state", "free-wave", "self-similar"])
    sm.add_argument("--data", help="data CSV (columns r,u0,u1) instead of a preset")
    sm.add_argument("--nu", type=float, default=0.05)
    sm.add_argument("--gspec", default="bump:-1:1:1")
    sm.add_argument("--rmin", type=float, required=True)
    sm.add_argument("--rmax", type=float, required=True)
    sm.add_argument("--dr", type=float, required=True)
    sm.add_argument("--T", type=float, required=True)
    sm.add_argument("--cfl", type=float, default=1.0)
    sm.add_argument("--out")
    sm.add_argument("--diag", help="write diagnostics JSON here")
    sm.set_defaults(fn=_cmd_simulate)
    return p


def _validate_paths(args) -> None:
    """Fail fast on unusable paths, before any computation starts."""
    for attr in ("out", "table", "diag"):
        path = getattr(args, attr, None)
        if path is None:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise OSError(f"output directory does not exist: {directory}")
    for attr in ("infile", "data"):
        path = getattr(args, attr, None)
        if path is not None and not os.path.isfile(path):
            raise OSError(f"input file does not exist: {path}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_paths(args)
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
