"""Command-line front end.

Subcommands: constants, profile, table1, verify, radiation, simulate.
This module reads every CLI input file, and makes and writes all CLI text;
the subcommands' computations return values.  Machine-readable output (CSV
with 12 significant digits or raw-number JSON) goes to --out or stdout; a
short human summary goes to stderr.  The JSON writer refuses NaN and
Infinity, which are not JSON; a verify item that was not computed writes
null.  simulate writes its CSV one snapshot at a time, so the whole text
never sits in memory.  Output files are written to a temporary name and
renamed on success, so a failed run never leaves a partial file; an
existing target that is not a regular file (a device or a FIFO) is written
in place instead.  A symlinked target is resolved first, so the link stays
and its target is replaced, and the file gets the mode a plain open() would
give it.  Exit codes: 0 success, 1 computation failure, 2 usage error,
3 verification failure, 141 stdout's reader closed early (128 + SIGPIPE,
what the shell reports for a tool that SIGPIPE kills); the last stops
quietly, with nothing on stderr.

Each subcommand imports only the exwave modules it runs: radiation loads no
pdesim, profiles or verify, and no _ode, nonlinearity or quadrature either,
since a sampled profile takes its moments from its spline, nor exterior,
whose tools no subcommand runs; table1 and verify load no radiation, _spline
or pdesim.  The simulate subcommand's computation is in _cli_simulate, which
imports numpy, nonlinearity and pdesim at its top, so the others compile
none of it: a process compiles each module it imports unless Python may
cache bytecode.  Only the subcommands that write JSON load json.  Only
simulate loads numpy: constants, profile, table1, verify and radiation
compute on floats and read their CSV input with the standard library; of
these only radiation's to-data and from-data, which make a data pair, load
dataclasses, and of simulate only --data and the free-wave preset, for the
same reason.  simulate loads radiation and _spline only where it reads a
data CSV (--data) or a profile (the free-wave preset), and quadrature only
for the box profile, whose moments are quadratures.  The process defaults
OPENBLAS_NUM_THREADS to 1 (see below); set the variable to override it.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile

# numpy is imported only inside the functions that compute on arrays, so
# only simulate loads it.  exwave makes two BLAS/LAPACK calls, both in
# pdesim: a 3 x 3 np.linalg.solve, far below OpenBLAS's threading
# threshold, and the blow-up guard's ddot, which only filters rows for an
# exact test, so its summation order never reaches the output.  The worker
# pool thus only costs start-up CPU, and one thread gives the same results.
# The default is set here, before any numpy import;
# setdefault keeps a value the user set, and the library itself leaves the
# variable alone, so importing exwave never changes the BLAS of the program
# that imports it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["main", "entry"]

# Work budget of `radiation --n`, checked before anything is allocated.
# to-data on 2 x 10^5 radii takes 5 s and 90 MB (2-vCPU VM), so 10^6 points
# stay under half a minute and half a GB.
MAX_SAMPLES = 10 ** 6


# -- input and output ----------------------------------------------------------


def _chunks(text):
    """A str is one chunk; anything else is an iterable of str chunks."""
    return (text,) if isinstance(text, str) else text


def _atomic_write(path: str, text) -> None:
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or FIFO: renaming over it would replace it with a file
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(text))
        return
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:  # a new file gets what open() gives under the umask
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-exwave-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.writelines(_chunks(text))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, out: str | None) -> None:
    """Write text (a str or an iterable of str chunks) to out or stdout;
    stdout always gets a final newline."""
    if out is not None:
        _atomic_write(out, text)
        return
    last = ""
    for chunk in _chunks(text):
        sys.stdout.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()  # a closed reader shows here, before the summary


def _csv_rows(*columns) -> str:
    """One CSV line per row of equally long float columns.  Every CSV cell
    the CLI writes is a '%.12g' slot of a line template, text cells written
    into it, and one %-format fills the slots: '%.12g' % v is f"{v:.12g}"
    for every float, and no text cell holds a '%'."""
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    return (line * len(columns[0])) % tuple(v for row in zip(*columns) for v in row)


def _simulate_csv(r, snapshots):
    """The simulate CSV, one chunk per (t, u) snapshot, by _csv_rows's rule:
    r is written into the line templates once, t joined in per snapshot."""
    templates = [""] + [f",{x:.12g},%.12g\n" for x in r]
    yield "t,r,u\n"
    for t, u in snapshots:
        yield f"{t:.12g}".join(templates) % tuple(u)


def _json_dumps(obj) -> str:
    import json   # here, so that the CSV-only subcommands never load it

    return json.dumps(obj, indent=2, allow_nan=False)   # NaN and Infinity are not JSON


def _table_csv(rows):
    """The table CSV: k, the z range and the five computed columns of each row."""
    lines = "".join(f"{k},{z_lo:g}-{z_hi:.6g}" + ",%.12g" * 5 + "\n"
                    for k, z_lo, z_hi, *_ in rows)
    return ("k,range,y_k,lambda_k,min_g,product,contribution\n",
            lines % tuple(v for row in rows for v in row[3:]))


# report.json's keys, in the order of a ReportItem's fields
_REPORT_KEYS = ("name", "computed", "target", "tolerance", "pass", "note")


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_csv_columns(path, n_cols):
    """The n_cols float columns of a CSV file with one header line; blank
    lines and '#' comments are skipped.  ValueError, naming the file and
    line, for a file with no data, a row of another width, a cell that is no
    number and a non-finite value."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh, None)  # the header
        for lineno, line in enumerate(fh, start=2):
            cells = line.split("#", 1)[0].split(",")
            if len(cells) == 1 and not cells[0].strip():
                continue
            if len(cells) != n_cols:
                raise ValueError(f"{path}:{lineno}: expected {n_cols} columns, got {len(cells)}")
            try:
                row = list(map(float, cells))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number in {line.strip()!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows below the header")
    return [list(column) for column in zip(*rows)]


# -- subcommands ----------------------------------------------------------------


def _cmd_constants(args) -> int:
    from . import nonlinearity as nl, verify

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
    from . import profiles

    prof = profiles.integrate_profile(args.nu, args.tol)
    columns = (prof.y_nodes, prof.phi_nodes, prof.dphi_nodes,
               [prof.energy_at(y) for y in prof.y_nodes])
    _emit(("y,phi,dphi,H\n", _csv_rows(*columns)), args.out)
    _info(f"nu={args.nu}: category={prof.category}, sup_phi={prof.sup_phi:.9g}, "
          f"drift={prof.energy_drift:.3g}")
    return 0


def _cmd_table1(args) -> int:
    from . import verify

    rows, summary, _ = verify.build_table1(verify.TOL if args.tol is None else args.tol)
    _emit(_table_csv(rows), args.out)
    _info(f"total={summary.total:.9g} g_minus={summary.g_minus:.9g} "
          f"margin={summary.total - summary.g_minus:.9g}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    report = verify.run_all(verify.TOL if args.tol is None else args.tol,
                            nu0=verify.NU0 if args.nu0 is None else args.nu0)
    items = [dict(zip(_REPORT_KEYS, item)) for item in report.items]
    _emit(_json_dumps({"items": items, "overall": report.overall}), args.out)
    if args.table is not None:
        if report.table is None:  # the report records the failure; not fatal
            _info(f"table not written: {report.table_error}")
        else:
            _atomic_write(args.table, _table_csv(report.table))
    n_pass = sum(1 for i in report.items if i.passed)
    _info(f"{n_pass}/{len(report.items)} checks passed; overall "
          + ("PASS" if report.overall else "FAIL"))
    return 0 if report.overall else 3


def _load_profile(path):
    from . import radiation

    s, g_vals = _read_csv_columns(path, 2)
    return radiation.RadiationProfile.from_samples(s, g_vals)


def _load_data(path):
    from . import radiation

    return radiation.RadialData.from_samples(*_read_csv_columns(path, 3))


def _cmd_radiation(args) -> int:
    from . import radiation
    from ._spline import linspace

    if not 2 <= args.n <= MAX_SAMPLES:
        raise ValueError(f"--n must lie in [2, {MAX_SAMPLES}] (the work budget), got {args.n}")
    if args.mode == "to-data":
        radiation.check_radius(args.rmin)
        G = _load_profile(args.infile)
        hi = max(abs(G.support[0]), abs(G.support[1]))
        r = linspace(args.rmin, max(2.0 * hi, args.rmin + 1.0), args.n)
        d = radiation.data_from_profile(G)
        u0 = [d.u0(x) for x in r]
        u1 = [d.u1(x) for x in r]
        _emit(("r,u0,u1\n", _csv_rows(r, u0, u1)), args.out)
        _info(f"data written on {len(r)} radii")
        return 0
    if args.mode == "from-data":
        G = radiation.profile_from_data(_load_data(args.infile))
        s = linspace(G.support[0], G.support[1], args.n)
        _emit(("s,G\n", _csv_rows(s, [G.value(x) for x in s])), args.out)
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


def _cmd_simulate(args) -> int:
    from ._cli_simulate import run   # compiled only when simulate runs

    sim = run(args, None if args.data is None else _load_data(args.data))
    _emit(_simulate_csv(sim.r, sim.snapshots), args.out)
    if args.diag is not None:
        _atomic_write(args.diag, _json_dumps(sim.diag))
    _info(f"simulated {sim.levels} levels to t={sim.t_end:.12g} on {len(sim.r)} radii"
          + (f"; BLOW-UP at t={sim.blowup.time}" if sim.blowup else ""))
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
    tb.add_argument("--tol", type=float)  # None: verify.TOL
    tb.add_argument("--out")
    tb.set_defaults(fn=_cmd_table1)

    vf = sub.add_parser("verify", help="run every check; exit 0 iff all pass")
    vf.add_argument("--tol", type=float)  # None: verify.TOL
    vf.add_argument("--out")
    vf.add_argument("--table", help="also write the table CSV here")
    vf.add_argument("--nu0", type=float,  # None: verify.NU0
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
    source = sm.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=["ground-state", "free-wave", "self-similar"])
    source.add_argument("--data", help="data CSV (columns r,u0,u1) instead of a preset")
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
    except BrokenPipeError:
        # The reader has gone, which is not a failure of the computation.
        # Buffered output left for exit goes to devnull, so the interpreter
        # prints no "Exception ignored" line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
