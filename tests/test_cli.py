import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from exwave import _cli_simulate, cli, profiles


def run_cli(args):
    return cli.main(args)


def test_constants_json(capsys):
    assert run_cli(["constants"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z0"] == pytest.approx(1.681792830, abs=1e-8)
    assert payload["sigma4"] == pytest.approx(8.0 * np.pi ** 2 / 3.0, rel=1e-15)
    assert isinstance(payload["z0"], float)


def test_profile_csv(tmp_path):
    out = tmp_path / "phi.csv"
    assert run_cli(["profile", "--nu", "1.86", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,phi,dphi,H"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data[0, 3] == pytest.approx(0.5 * 1.86 ** 2, abs=1e-10)


def test_profile_stdout_is_profile_to_csv(capsys):
    # stdout is the CSV of the profile's node lists
    assert run_cli(["profile", "--nu", "1.86"]) == 0
    p = profiles.integrate_profile(1.86, 1e-12)
    rows = zip(p.y_nodes, p.phi_nodes, p.dphi_nodes, map(p.energy_at, p.y_nodes))
    want = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
    assert capsys.readouterr().out == "y,phi,dphi,H\n" + want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    simulate = ["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "3",
                "--dr", "0.05", "--T", "0.5", "--out"]
    try:
        assert run_cli(["constants", "--out", str(fifo)]) == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        payload = json.loads(os.read(reader, 1 << 16))
        assert run_cli([*simulate, str(fifo)]) == 0  # streamed in chunks
        streamed = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert payload["z0"] == pytest.approx(1.681792830, abs=1e-8)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]
    plain = tmp_path / "traj.csv"
    assert run_cli([*simulate, str(plain)]) == 0
    assert len(streamed) < 1 << 16  # fits a pipe buffer, so the writer never blocks
    assert streamed == plain.read_bytes()


def test_out_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("{}")
    link.symlink_to(target)
    assert run_cli(["constants", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["z0"] == pytest.approx(1.681792830, abs=1e-8)


def test_out_file_gets_the_mode_open_would_give(tmp_path):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("{}")
    old.chmod(0o604)
    umask = os.umask(0o027)
    try:
        assert run_cli(["constants", "--out", str(new)]) == 0
        assert run_cli(["constants", "--out", str(old)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604


def test_table1_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["table1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,range,y_k,lambda_k,min_g,product,contribution"
    assert len(lines) == 17


def test_verify_pass_and_report(tmp_path):
    out = tmp_path / "report.json"
    table = tmp_path / "table.csv"
    assert run_cli(["verify", "--tol", "1e-10", "--out", str(out),
                    "--table", str(table)]) == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] is True
    assert len(payload["items"]) >= 12
    assert table.exists()


def test_verify_negative_control_exit_code(tmp_path):
    out = tmp_path / "report.json"
    table = tmp_path / "table.csv"
    code = run_cli(["verify", "--nu0", "1.0", "--out", str(out),
                    "--table", str(table)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["overall"] is False
    assert not table.exists()  # unbuildable table is reported, not fatal


def _env_with_exwave():
    import exwave
    src = os.path.dirname(os.path.dirname(os.path.abspath(exwave.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _python_with_exwave(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env_with_exwave(), timeout=120)


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
_MODULES_LOADED = (_SCIPY_LOADED + "\n"
                   "print(*sorted(m[7:] for m in sys.modules if m.startswith('exwave.')))\n"
                   "print(*sorted({'numpy', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))")

# exwave modules each subcommand must not load: it imports only what it runs
_UNUSED_MODULES = {
    "constants": {"radiation", "_spline", "pdesim", "_cli_simulate"},
    "profile": {"radiation", "_spline", "pdesim", "verify", "_cli_simulate"},
    "table1": {"radiation", "_spline", "pdesim", "_cli_simulate"},
    "verify": {"radiation", "_spline", "pdesim", "_cli_simulate"},
    # the quadrature, the nonlinearity and the ODE module serve only
    # non-smooth profiles and the ground-state residue; exterior holds the
    # tools that no subcommand runs
    "radiation": {"pdesim", "profiles", "verify", "_ode", "nonlinearity", "quadrature",
                  "exterior", "_cli_simulate"},
    # a profile alone needs no data pair
    "residues": {"pdesim", "profiles", "verify", "_ode", "nonlinearity", "quadrature",
                 "exterior", "_cli_simulate", "radial_data"},
    "asymptotic": {"pdesim", "profiles", "verify", "_ode", "nonlinearity", "quadrature",
                   "exterior", "_cli_simulate", "radial_data"},
    "simulate": {"profiles", "verify", "exterior"},
    # the closed-form presets hand pdesim a plain (u0, u1) pair and need
    # no quadrature
    "simulate-ground-state": {"radiation", "_spline", "quadrature", "_ode", "profiles", "verify"},
    "simulate-self-similar": {"radiation", "_spline", "quadrature", "_ode", "profiles", "verify"},
}


# subcommands (and radiation modes) that compute on floats only, so they
# never import numpy
_NO_NUMPY = {"constants", "profile", "table1", "verify", "radiation", "residues", "asymptotic"}
# subcommands whose records are namedtuples, the radiation modes that make no
# data pair and the closed-form simulate presets, so they never import
# dataclasses (nor inspect, which dataclasses imports, unless numpy has)
_NO_DATACLASSES = {"constants", "profile", "table1", "verify", "residues", "asymptotic",
                   "simulate-ground-state", "simulate-self-similar"}
# the runs that write JSON, the only ones that load json
_WRITES_JSON = {"constants", "verify", "residues", "asymptotic", "simulate-diag"}


def _assert_loads_only_its_modules(proc, command, run=None):
    """``run`` names the run in _WRITES_JSON (default: ``command``)."""
    assert proc.returncode == 0, proc.stderr
    scipy_modules, exwave_modules, stdlib_modules = proc.stdout.splitlines()
    assert scipy_modules == "[]"
    assert not _UNUSED_MODULES[command] & set(exwave_modules.split())
    loaded = set(stdlib_modules.split())
    if command in _NO_NUMPY:
        assert "numpy" not in loaded
    if command in _NO_DATACLASSES:
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded or "numpy" in loaded
    assert ("json" in loaded) == ((run or command) in _WRITES_JSON)


def test_cli_import_loads_no_scipy():
    proc = _python_with_exwave("import sys, exwave.cli\n" + _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy():
    proc = _python_with_exwave("import sys, exwave.cli\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_loads_no_numpy():
    proc = _python_with_exwave(
        "import sys, exwave\n"
        "assert 'numpy' not in sys.modules\n"
        "assert exwave.radiation.__name__ == 'exwave.radiation'\n"
        "assert 'numpy' not in sys.modules and 'exwave.pdesim' not in sys.modules\n"
        "assert exwave.pdesim.__name__ == 'exwave.pdesim' and 'numpy' in sys.modules\n"
        "assert not hasattr(exwave, 'no_such_module')\n")
    assert proc.returncode == 0, proc.stderr


# numpy is imported after exwave.cli, as the subcommands that use it do
_THREADS = ("import os, exwave.cli\nimport numpy\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "task = '/proc/self/task'\n"
            "print(len(os.listdir(task)) if os.path.isdir(task) else 'no-proc')\n")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_cli_defaults_blas_to_one_thread(preset, want):
    env = _env_with_exwave()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == want
    if preset is None and threads != "no-proc":
        assert threads == "1"  # no idle OpenBLAS worker beside the main thread


def test_verify_loads_no_scipy(tmp_path):
    out = tmp_path / "report.json"
    proc = _python_with_exwave(
        "import sys\nfrom exwave.cli import main\n"
        f"assert main(['verify', '--out', {str(out)!r}]) == 0\n" + _MODULES_LOADED)
    _assert_loads_only_its_modules(proc, "verify")


_SIM = ["--rmin", "0.5", "--rmax", "4.5", "--dr", "0.05", "--T", "1"]
_NO_SCIPY_RUNS = {
    "constants": ["constants"],
    "profile": ["profile", "--nu", "1.86"],
    "table1": ["table1"],
    "to-data": ["radiation", "to-data", "--in", "profile.csv", "--n", "51"],
    "from-data": ["radiation", "from-data", "--in", "data.csv", "--n", "51"],
    "residues": ["radiation", "residues", "--in", "profile.csv"],
    "asymptotic": ["radiation", "asymptotic", "--in", "profile.csv"],
    "simulate-data": ["simulate", "--data", "data.csv", *_SIM],
    "simulate-bump": ["simulate", "--preset", "free-wave", "--gspec", "bump:-1:1:1", *_SIM],
    "simulate-box": ["simulate", "--preset", "free-wave", "--gspec", "box:-1:1", *_SIM],
    "simulate-ground-state": ["simulate", "--preset", "ground-state", *_SIM],
    "simulate-self-similar": ["simulate", "--preset", "self-similar", *_SIM],
    "simulate-diag": ["simulate", "--preset", "ground-state", *_SIM, "--diag", "diag.json"],
}


@pytest.mark.parametrize("run, argv", _NO_SCIPY_RUNS.items(), ids=_NO_SCIPY_RUNS.keys())
def test_subcommand_loads_no_scipy(tmp_path, run, argv):
    s = np.linspace(-1.0, 1.0, 101)
    r = np.linspace(0.5, 3.0, 101)
    bump = np.where(np.abs(r - 1.5) < 0.8, (1.0 - ((r - 1.5) / 0.8) ** 2) ** 3, 0.0)
    for name, header, cols in (("profile.csv", "s,G", (s, (1.0 - s * s) ** 3)),
                               ("data.csv", "r,u0,u1", (r, bump, 0.5 * bump))):
        np.savetxt(tmp_path / name, np.column_stack(cols), delimiter=",", header=header,
                   comments="")
    proc = _python_with_exwave(
        f"import os, sys\nos.chdir({str(tmp_path)!r})\nfrom exwave.cli import main\n"
        f"assert main({[*argv, '--out', 'out.txt']!r}) == 0\n" + _MODULES_LOADED)
    _assert_loads_only_its_modules(proc, run if run in _UNUSED_MODULES else argv[0], run)


_RUN_MODULE_ARGV = {
    "simulate": (["simulate", "--preset", "ground-state", *_SIM], "t,r,u\n"),
    "to-data": (["radiation", "to-data", "--in", "profile.csv", "--n", "51"], "r,u0,u1\n"),
    "verify": (["verify"], "{\n"),
}


@pytest.mark.parametrize("run", _RUN_MODULE_ARGV)
def test_run_module_never_imports_cli_or_a_helper_module(tmp_path, run):
    # python -m exwave.cli runs cli as __main__: were exwave.cli imported as
    # well, cli.py would run a second time as a second module; and cli does
    # all the CLI input and output itself, with no helper module for it
    argv, head = _RUN_MODULE_ARGV[run]
    s = [-1.0 + 0.04 * i for i in range(51)]
    (tmp_path / "profile.csv").write_text(
        "s,G\n" + "".join(f"{x:.12g},{(1.0 - x * x) ** 3:.12g}\n" for x in s))
    out = tmp_path / "out.txt"
    proc = _python_with_exwave(
        f"import os, runpy, sys\nos.chdir({str(tmp_path)!r})\n"
        f"sys.argv = {['exwave', *argv, '--out', str(out)]!r}\n"
        "try:\n    runpy.run_module('exwave.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "assert ('exwave._cli_simulate' in sys.modules) == (sys.argv[1] == 'simulate')\n"
        "assert 'exwave.cli' not in sys.modules\n"
        "assert 'exwave._io' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").startswith(head)


_IN_PROCESS_RUNS = [
    ["verify", "--out", "report.json", "--table", "table.csv"],
    ["table1", "--out", "table1.csv"],
    ["constants", "--out", "constants.json"],
    ["radiation", "to-data", "--in", "profile.csv", "--n", "51", "--out", "data.csv"],
    ["radiation", "from-data", "--in", "data.csv", "--n", "51", "--out", "back.csv"],
    ["radiation", "residues", "--in", "profile.csv", "--out", "residues.json"],
    ["radiation", "asymptotic", "--in", "profile.csv", "--out", "alphas.json"],
    ["simulate", "--preset", "ground-state", *_SIM, "--out", "sim.csv", "--diag", "diag.json"],
    ["table1"],
]


def test_in_process_main_writes_nothing_to_the_real_stdout(tmp_path):
    # bench/run.py --trace 1 calls cli.main in-process under redirect_stdout
    # and prints its result lines on the real stdout, so anything exwave
    # writes past the redirect lands among them
    s = np.linspace(-1.0, 1.0, 101)
    np.savetxt(tmp_path / "profile.csv", np.column_stack((s, (1.0 - s * s) ** 3)),
               delimiter=",", header="s,G", comments="")
    proc = _python_with_exwave(
        f"import contextlib, io, os\nos.chdir({str(tmp_path)!r})\nfrom exwave import cli\n"
        f"for argv in {_IN_PROCESS_RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "with open('last.out', 'w') as f:\n    f.write(out.getvalue())\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    last = (tmp_path / "last.out").read_text()
    assert last.startswith("k,range,y_k,lambda_k,min_g,product,contribution\n")
    assert last == (tmp_path / "table1.csv").read_text()


def test_verify_table_matches_table1(tmp_path):
    via_verify = tmp_path / "verify.csv"
    via_table1 = tmp_path / "table1.csv"
    assert run_cli(["verify", "--out", str(tmp_path / "r.json"),
                    "--table", str(via_verify)]) == 0
    assert run_cli(["table1", "--out", str(via_table1)]) == 0
    assert via_verify.read_bytes() == via_table1.read_bytes()


def test_profile_non_finite_slope_exits_1(capsys):
    assert run_cli(["profile", "--nu", "nan"]) == 1
    assert "finite" in capsys.readouterr().err


def test_profile_tolerance_too_small_exits_1_without_warnings():
    # 1e-300 overflows the initial state's scaled norm; at 1e-150 and 1e-100
    # the first step already falls below the solver's underflow floor
    for tol in ("1e-300", "1e-150", "1e-100"):
        proc = subprocess.run([sys.executable, "-m", "exwave.cli", "profile", "--nu", "1",
                               "--tol", tol], capture_output=True, text=True,
                              env=_env_with_exwave(), timeout=120)
        assert proc.returncode == 1
        assert f"tol={tol} is too small" in proc.stderr
        assert "Warning" not in proc.stderr


def test_profile_huge_slope_exits_1_naming_state_and_tolerance():
    proc = subprocess.run([sys.executable, "-m", "exwave.cli", "profile", "--nu", "1e150"],
                          capture_output=True, text=True, env=_env_with_exwave(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tol=1e-12 is too small for the initial state "
                                  "y0=(0.0, 1e+150), or y0 too large")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_integration_failure_prints_plain_floats(capsys):
    # 1e-40 passes the first-step check and underflows after a few steps
    assert run_cli(["profile", "--nu", "1", "--tol", "1e-40"]) == 1
    err = capsys.readouterr().err
    assert "step size underflow" in err
    assert "np.float64(" not in err


def test_verify_non_finite_tolerance_exits_1(tmp_path):
    start = time.perf_counter()
    assert run_cli(["verify", "--tol", "nan", "--out", str(tmp_path / "r.json")]) == 1
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("nu0", ["nan", "-1"])
def test_verify_bad_nu0_exits_1(tmp_path, capsys, nu0):
    assert run_cli(["verify", "--nu0", nu0, "--out", str(tmp_path / "r.json")]) == 1
    assert "nu0 must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--bogus"])
    assert info.value.code == 2


def test_paths_validated_before_computation(tmp_path):
    bad = tmp_path / "no" / "such" / "dir" / "out.json"
    # fails immediately on the unusable path, not after the pipeline runs
    assert run_cli(["verify", "--out", str(bad)]) == 1


def test_computation_failure_exits_1(tmp_path):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "never.json"
    assert run_cli(["radiation", "residues", "--in", str(missing),
                    "--out", str(out)]) == 1
    assert not out.exists()  # failed runs leave no partial output


def test_simulate_from_data_csv(tmp_path):
    r = np.linspace(0.5, 8.5, 401)
    u0 = np.where(np.abs(r - 3.0) < 1.0, (1.0 - (r - 3.0) ** 2) ** 3, 0.0)
    u1 = np.zeros_like(r)
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n" + "\n".join(
        f"{a:.12g},{b:.12g},{c:.12g}" for a, b, c in zip(r, u0, u1)) + "\n")
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--data", str(data_csv), "--rmin", "0.5",
                    "--rmax", "8.5", "--dr", "0.02", "--T", "1", "--out", str(out)]) == 0
    traj = np.loadtxt(out, delimiter=",", skiprows=1)
    assert traj.shape[1] == 3
    # neither or both sources: a usage error
    grid = ["--rmin", "0.5", "--rmax", "8.5", "--dr", "0.02", "--T", "1"]
    for source in ([], ["--preset", "free-wave", "--data", str(data_csv)]):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", *source, *grid])
        assert info.value.code == 2


def test_radiation_round_trip(tmp_path, capsys):
    s = np.linspace(-1.5, 1.5, 301)
    g_vals = np.where(np.abs(s) < 1.0, (1.0 - s ** 2) ** 3, 0.0)
    profile_csv = tmp_path / "profile.csv"
    profile_csv.write_text("s,G\n" + "\n".join(f"{a:.12g},{b:.12g}" for a, b in zip(s, g_vals)) + "\n")

    data_csv = tmp_path / "data.csv"
    assert run_cli(["radiation", "to-data", "--in", str(profile_csv),
                    "--out", str(data_csv), "--n", "301"]) == 0
    back_csv = tmp_path / "back.csv"
    assert run_cli(["radiation", "from-data", "--in", str(data_csv),
                    "--out", str(back_csv), "--n", "101"]) == 0
    back = np.loadtxt(back_csv, delimiter=",", skiprows=1)
    inside = np.abs(back[:, 0]) < 0.9
    expect = np.where(np.abs(back[inside, 0]) < 1, (1 - back[inside, 0] ** 2) ** 3, 0.0)
    assert np.max(np.abs(back[inside, 1] - expect)) < 5e-3  # sampled round trip

    assert run_cli(["radiation", "residues", "--in", str(profile_csv), "--R", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius"] == 2.0
    assert payload["tau1"] == pytest.approx(-(32.0 / 35.0) / np.sqrt(2.0), abs=1e-6)

    assert run_cli(["radiation", "asymptotic", "--in", str(profile_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha1"] == pytest.approx(-(32.0 / 35.0), abs=1e-6)
    assert payload["alpha2"] == pytest.approx(0.0, abs=1e-8)


def test_simulate_ground_state(tmp_path):
    out = tmp_path / "traj.csv"
    diag = tmp_path / "diag.json"
    assert run_cli(["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "6",
                    "--dr", "0.05", "--T", "1", "--out", str(out), "--diag", str(diag)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 3
    payload = json.loads(diag.read_text())
    es = payload["energy"]
    assert max(es) - min(es) < 1e-3 * abs(es[0])


def test_simulate_blow_up_snapshots_sit_on_the_truncated_run(tmp_path, capsys):
    from exwave import pdesim

    out, diag = tmp_path / "traj.csv", tmp_path / "diag.json"
    grid = ["--rmin", "0.5", "--rmax", "4.5", "--dr", "0.01", "--T", "3"]
    assert run_cli(["simulate", "--preset", "self-similar", "--nu", "20", *grid,
                    "--out", str(out), "--diag", str(diag)]) == 0
    assert "BLOW-UP at t=0.84" in capsys.readouterr().err
    payload = json.loads(diag.read_text())
    assert payload["blowup"] == {"time": 0.84, "radius": 0.78}
    assert len(payload["times"]) == 8
    # the same data run once keeping every level: the CLI's rerun on the
    # truncated run must give its snapshots cell for cell
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    d = SimpleNamespace(u0=zero, u1=lambda r: 20.0 * np.asarray(r, dtype=float) ** -2.5)
    tr = pdesim.simulate(d, pdesim.SimConfig(r_min=0.5, r_max=4.5, dr=0.01, T=3.0), levels=None)
    snaps = _cli_simulate._snapshot_levels(len(tr.times))
    assert len(snaps) == 9 and f"{tr.times[snaps[-1]]:.12g}" == "0.83"
    want = ["t,r,u"] + [f"{tr.times[n]:.12g},{x:.12g},{u:.12g}"
                        for n in snaps for x, u in zip(tr.r.tolist(), tr.u_level(n).tolist())]
    assert out.read_text().splitlines() == want


def test_extraction_error_names_a_t_and_r_max_that_extract(tmp_path):
    # the ray r = t - 1 lies below r_min at every sample time of this run
    argv = ["simulate", "--preset", "free-wave", "--gspec", "bump:-1:1:1", "--rmin", "0.5",
            "--dr", "0.05", "--out", str(tmp_path / "traj.csv"),
            "--diag", str(tmp_path / "diag.json")]
    assert run_cli([*argv, "--rmax", "4.5", "--T", "1"]) == 0
    error = json.loads((tmp_path / "diag.json").read_text())["extracted_profile_error"]
    T, r_max = re.search(r"the run needs T >= (\S+) and r_max >= (\S+)$", error).groups()
    assert run_cli([*argv, "--rmax", r_max, "--T", T]) == 0
    extracted = json.loads((tmp_path / "diag.json").read_text())["extracted_profile"]
    assert [s for s, _ in extracted] == _cli_simulate._EXTRACTION_S
    assert all(math.isfinite(g) for _, g in extracted)
    assert abs(extracted[4][1] - 1.0) < 5e-2   # G(0) of the bump


def test_simulate_rejects_bad_grid():
    assert run_cli(["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "2",
                    "--dr", "0.3", "--T", "1"]) == 1


def test_repeated_runs_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["verify", "--out", str(out1)]) == 0
    assert run_cli(["verify", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "exwave.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # usage error without a subcommand


def test_simulate_non_finite_slope_exits_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--preset", "self-similar", "--nu", "nan", "--rmin", "1",
                    "--rmax", "3", "--dr", "0.01", "--T", "0.5", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_data_with_nan_exits_1(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n1,0.1,0\n2,nan,0\n3,0.1,0\n4,0,0\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--data", str(data_csv), "--rmin", "1", "--rmax", "4",
                    "--dr", "0.1", "--T", "0.5", "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_data_past_the_guard_exits_1(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n1,1e200,0\n2,1e200,0\n3,1e200,0\n4,1e200,0\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--data", str(data_csv), "--rmin", "1", "--rmax", "4",
                    "--dr", "0.1", "--T", "0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: initial data exceed the blow-up guard: |r^2 u0| > 1e+12\n")
    assert not out.exists()


def test_simulate_diagnostic_overflow_exits_1(tmp_path, capsys):
    # u1 = 1e200: the guard stops the run at level 1, and the energy at
    # t = 0 overflows; the run writes nothing and says so on one line
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n" + "".join(f"{1 + 0.1 * i:.12g},0,1e200\n"
                                              for i in range(31)))
    out, diag = tmp_path / "x.csv", tmp_path / "diag.json"
    assert run_cli(["simulate", "--data", str(data_csv), "--rmin", "1", "--rmax", "4",
                    "--dr", "0.1", "--T", "0.5", "--out", str(out), "--diag", str(diag)]) == 1
    assert capsys.readouterr().err == "error: energy at t=0.0 is not finite: inf\n"
    assert not out.exists() and not diag.exists()


def test_simulate_box_preset_starts_from_its_closed_form(tmp_path):
    # the box G = 1 on [0, 1] gives u0 = min(r, 1)^2 / (2 r^3) at t = 0
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--preset", "free-wave", "--gspec", "box:0:1", "--rmin", "0.5",
                    "--rmax", "3", "--dr", "0.05", "--T", "0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    first = [(r, u) for t, r, u in rows if t == "0"]
    assert len(first) == 51
    assert all(u == f"{min(float(r), 1.0) ** 2 / (2.0 * float(r) ** 3):.12g}" for r, u in first)


def test_simulate_continues_a_data_csv_as_from_data_does(tmp_path):
    # past its last radius r = 3 the golden to-data CSV is a free wave's far
    # field c r^-3, and simulate --data continues it so, as from-data does
    data_csv = os.path.join(os.path.dirname(__file__), "data", "golden", "radiation-to-data",
                            "data.csv")
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--data", data_csv, "--rmin", "0.5", "--rmax", "5",
                    "--dr", "0.05", "--T", "0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    past = [(float(r), float(u)) for t, r, u in rows if t == "0" and float(r) > 3.0]
    assert len(past) == 40
    u0_end = 0.00376249270075   # the CSV's last row, at r = 3
    assert past[0] == (3.05, 0.00358046895274)
    for r, u in past:
        assert u == pytest.approx(27.0 * u0_end / r ** 3, rel=1e-11, abs=0.0)
    assert cli._load_data(data_csv).u0(3.05) == pytest.approx(0.00358046895274, rel=1e-11)


@pytest.mark.parametrize("T", ["1e7", "1e13"])
def test_simulate_over_budget_exits_1_at_once(tmp_path, capsys, T):
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run_cli(["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "2",
                    "--dr", "0.5", "--T", T, "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
def test_simulate_keeps_only_the_levels_it_writes(tmp_path):
    # the full history of this run is 8001 x 2401 doubles = 154 MB
    args = ["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "41",
            "--dr", "0.005", "--T", "12", "--out", str(tmp_path / "traj.csv"),
            "--diag", str(tmp_path / "diag.json")]
    # A child's ru_maxrss starts from the resident set of the process that
    # spawned it, so the CLI is spawned from a bare interpreter, not from here.
    proc = _python_with_exwave(
        "import os, subprocess, sys\n"
        f"child = subprocess.Popen([sys.executable, '-m', 'exwave.cli', *{args!r}],\n"
        "                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "child.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(child.returncode, usage.ru_maxrss)\n")
    assert proc.returncode == 0, proc.stderr
    returncode, peak_kb = map(int, proc.stdout.split())
    assert returncode == 0
    assert peak_kb / 1024.0 < 100.0  # MB; keeping every level needs > 300 MB


def test_closed_stdout_reader_stops_quietly():
    # about 1.8 MB of CSV, far more than a pipe buffers, so a write meets the closed pipe
    args = ["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "41",
            "--dr", "0.005", "--T", "2"]
    child = subprocess.Popen([sys.executable, "-m", "exwave.cli", *args],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_env_with_exwave())
    assert child.stdout.readline() == b"t,r,u\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 141  # 128 + SIGPIPE, as documented
    assert err == b""


def _profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("s,G\n-1,0\n0,1\n1,0\n")
    return str(path)


def test_radiation_residues_non_finite_radius_exits_1(tmp_path, capsys):
    assert run_cli(["radiation", "residues", "--in", _profile_csv(tmp_path), "--R", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_radiation_to_data_non_finite_rmin_exits_1(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run_cli(["radiation", "to-data", "--in", _profile_csv(tmp_path),
                    "--rmin", "nan", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1"])
def test_radiation_too_few_samples_exits_1(tmp_path, capsys, n):
    out = tmp_path / "data.csv"
    assert run_cli(["radiation", "to-data", "--in", _profile_csv(tmp_path),
                    "--n", n, "--out", str(out)]) == 1
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")   # a RuntimeWarning would escape main
def test_radiation_residues_tiny_radius_exits_1_without_warnings(tmp_path, capsys):
    # R^(3/2) underflows to 0: no NaN in the JSON
    assert run_cli(["radiation", "residues", "--in", _profile_csv(tmp_path), "--R", "1e-320"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius 1e-320 is out of range: r**1.5 is 0.0\n"


@pytest.mark.filterwarnings("error")
def test_radiation_to_data_tiny_rmin_exits_1_without_warnings(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run_cli(["radiation", "to-data", "--in", _profile_csv(tmp_path), "--rmin", "1e-300",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: radius 1e-300 is out of range: r**3 is 0.0\n"
    assert not out.exists()


def test_radiation_from_data_negative_radius_exits_1(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n-1,0,0\n0,1,0\n1,0.5,0\n2,0,0\n")
    out = tmp_path / "back.csv"
    assert run_cli(["radiation", "from-data", "--in", str(data_csv), "--out", str(out)]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, problem", [
    ("r,u0,u1\n", "no data"),
    ("r,u0,u1\n0.5,0,0\n1,0.5\n2,0,0\n", ":3: expected 3 columns, got 2"),
    ("r,u0,u1\n0.5,0,0\n1,0.5,0,7\n2,0,0\n", ":3: expected 3 columns, got 4"),
    ("r,u0,u1\n0.5,0,0\n1,abc,0\n2,0,0\n", ":3: not a number"),
])
@pytest.mark.filterwarnings("error")   # a warning before the error would escape main
def test_malformed_data_csv_exits_1_naming_the_file(tmp_path, capsys, text, problem):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text(text)
    out = tmp_path / "back.csv"
    assert run_cli(["radiation", "from-data", "--in", str(data_csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_csv}")
    assert problem in err
    assert not out.exists()


def test_data_csv_reader_skips_blank_and_comment_lines(tmp_path):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("r,u0,u1\n0.5, 1 ,2\n\n# a comment\n1e0,3,4  # trailing\n")
    assert cli._read_csv_columns(str(data_csv), 3) == [[0.5, 1.0], [1.0, 3.0], [2.0, 4.0]]


def test_radiation_n_over_budget_exits_1_allocating_nothing(tmp_path, capsys):
    import tracemalloc

    from exwave import radiation  # noqa: F401 -- imported before the measurement

    out = tmp_path / "data.csv"
    argv = ["radiation", "to-data", "--in", _profile_csv(tmp_path),
            "--n", str(cli.MAX_SAMPLES + 1), "--out", str(out)]
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20   # bytes; a list of 10^6 floats alone takes 32 MB
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def _old_rows(*columns):
    """The CSV lines of the per-cell loop the writers used to run."""
    return "".join(",".join(f"{np.float64(x):.12g}" for x in row) + "\n"
                   for row in zip(*columns))


def _old_csv(header, *columns):
    return header + "\n" + _old_rows(*columns)


_SMALL_GROUND_STATE = ["simulate", "--preset", "ground-state", "--rmin", "1",
                       "--rmax", "6", "--dr", "0.05", "--T", "1"]


def _small_ground_state_csv():
    from exwave import nonlinearity as nl, pdesim, radiation
    d = radiation.RadialData(u0=lambda r: nl.ground_state(r)[0],
                             u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                             du0=lambda r: nl.ground_state(r)[1], decay=3.0)
    cfg = pdesim.SimConfig(r_min=1.0, r_max=6.0, dr=0.05, T=1.0, nonlinearity="focusing",
                           boundary_values=lambda r, t: nl.ground_state(r)[0])
    tr = pdesim.simulate(d, cfg)
    snaps = _cli_simulate._snapshot_levels(len(tr.times))
    assert len(snaps) == 9
    return "t,r,u\n" + "".join(
        _old_rows([tr.times[n]] * len(tr.r), tr.r, tr.u_level(n)) for n in snaps)


def test_simulate_csv_is_the_per_cell_text(tmp_path, capsys):
    want = _small_ground_state_csv()
    out = tmp_path / "traj.csv"
    assert run_cli([*_SMALL_GROUND_STATE, "--out", str(out)]) == 0
    assert out.read_text() == want
    capsys.readouterr()
    assert run_cli(_SMALL_GROUND_STATE) == 0
    assert capsys.readouterr().out == want


def test_cli_simulate_returns_values_and_touches_no_file_or_stream(tmp_path, monkeypatch,
                                                                   capsys):
    import builtins
    import tempfile

    out, diag = tmp_path / "traj.csv", tmp_path / "diag.json"
    argv = [*_SMALL_GROUND_STATE, "--out", str(out), "--diag", str(diag)]
    assert run_cli(argv) == 0
    summary = capsys.readouterr().err

    def refuse(*args, **kwargs):
        raise AssertionError("_cli_simulate touched the filesystem")

    for owner, name in ((builtins, "open"), (os, "open"), (os, "replace"),
                        (tempfile, "mkstemp")):
        monkeypatch.setattr(owner, name, refuse)
    sim = _cli_simulate.run(cli._build_parser().parse_args(argv))
    assert iter(sim.snapshots) is sim.snapshots   # made as the CSV is written
    rows = list(sim.snapshots)
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diag.json", "traj.csv"]
    # the values are what cli.main wrote for the same arguments
    assert len(rows) == 9 and all(len(u) == len(sim.r) == 101 for _, u in rows)
    assert out.read_text().splitlines() == ["t,r,u"] + [
        f"{t:.12g},{x:.12g},{v:.12g}" for t, u in rows for x, v in zip(sim.r, u)]
    assert json.loads(diag.read_text()) == sim.diag
    assert summary == f"simulated {sim.levels} levels to t={sim.t_end:.12g} on 101 radii\n"
    assert sim.blowup is None


def _column_formula_csv(preset):
    """The simulate CSV built cell by cell with f"{v:.12g}", from a
    pdesim.simulate run that shares no formatting code with cli."""
    from types import SimpleNamespace

    from exwave import nonlinearity as nl, pdesim

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    if preset == "ground-state":
        d = SimpleNamespace(u0=lambda r: nl.ground_state(r)[0], u1=zero)
        extra = dict(boundary_values=lambda r, t: nl.ground_state(r)[0])
    else:
        # 0.05 is the CLI's default --nu
        d = SimpleNamespace(u0=zero, u1=lambda r: 0.05 * np.asarray(r, dtype=float) ** -2.5)
        extra = {}
    tr = pdesim.simulate(d, pdesim.SimConfig(r_min=1.0, r_max=6.0, dr=0.05, T=1.0, **extra))
    return "t,r,u\n" + "".join(
        f"{tr.times[n]:.12g},{x:.12g},{v:.12g}\n"
        for n in _cli_simulate._snapshot_levels(len(tr.times))
        for x, v in zip(tr.r.tolist(), tr.u_level(n).tolist()))


@pytest.mark.parametrize("preset", ["ground-state", "self-similar"])
def test_simulate_csv_is_the_column_formula(tmp_path, preset):
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--preset", preset, "--rmin", "1", "--rmax", "6",
                    "--dr", "0.05", "--T", "1", "--out", str(out)]) == 0
    assert out.read_text() == _column_formula_csv(preset)


# signed zeros, subnormals, the extremes, both sides of %g's exponent switch,
# and values at a 12-significant-digit rounding boundary
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, 123456789012.5, 0.1 + 0.2, -1 / 3, 9.999999999995e-5,
                999999999999.5, 1e21, -2.5e-7)


def test_every_csv_writer_prints_edge_floats_cell_by_cell():
    vals, rev = list(_EDGE_FLOATS), list(reversed(_EDGE_FLOATS))
    assert cli._csv_rows(vals, rev) == "".join(
        f"{a:.12g},{b:.12g}\n" for a, b in zip(vals, rev))
    rows = [(k, 1.5, 1.6, *(vals[(k + j) % len(vals)] for j in range(5)))
            for k in range(1, len(vals) + 1)]
    header, body = cli._table_csv(rows)
    assert header == "k,range,y_k,lambda_k,min_g,product,contribution\n"
    assert body == "".join(f"{k},1.5-1.6," + ",".join(f"{v:.12g}" for v in cells) + "\n"
                           for k, _, _, *cells in rows)
    chunks = list(cli._simulate_csv(np.array(vals), [(t, np.array(rev)) for t in vals]))
    assert chunks == ["t,r,u\n"] + [
        "".join(f"{t:.12g},{x:.12g},{v:.12g}\n" for x, v in zip(vals, rev)) for t in vals]


def test_radiation_csvs_are_the_per_cell_text(tmp_path):
    from exwave import radiation
    s = np.linspace(-1.5, 1.5, 301)
    g_vals = np.where(np.abs(s) < 1.0, (1.0 - s ** 2) ** 3 * (0.3 + s), 0.0)
    profile_csv = tmp_path / "profile.csv"
    profile_csv.write_text(_old_csv("s,G", s, g_vals))

    data_csv = tmp_path / "data.csv"
    assert run_cli(["radiation", "to-data", "--in", str(profile_csv), "--rmin", "0.2",
                    "--n", "151", "--out", str(data_csv)]) == 0
    d = radiation.data_from_profile(radiation.RadiationProfile.from_samples(
        *np.loadtxt(profile_csv, delimiter=",", skiprows=1).T))
    r = np.linspace(0.2, 3.0, 151)
    assert data_csv.read_text() == _old_csv("r,u0,u1", r, d.u0(r), d.u1(r))

    back_csv = tmp_path / "back.csv"
    assert run_cli(["radiation", "from-data", "--in", str(data_csv), "--n", "101",
                    "--out", str(back_csv)]) == 0
    G = radiation.profile_from_data(radiation.RadialData.from_samples(
        *np.loadtxt(data_csv, delimiter=",", skiprows=1).T))
    s_back = np.linspace(G.support[0], G.support[1], 101)
    assert back_csv.read_text() == _old_csv("s,G", s_back, G.value(s_back))


def test_atomic_write_of_failing_chunks_keeps_the_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old contents\n")

    def chunks():
        yield "t,r,u\n"
        raise RuntimeError("snapshot failed")

    with pytest.raises(RuntimeError, match="snapshot failed"):
        cli._atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_simulate_peak_memory_is_a_small_multiple_of_its_csv(tmp_path):
    import tracemalloc
    out = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--preset", "ground-state", "--rmin", "1", "--rmax", "41",
                        "--dr", "0.005", "--T", "2", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.0x when the CSV is streamed one snapshot at a time; 6.1x when it was
    # built as one string from a list of lines
    assert peak < 3 * out.stat().st_size


@pytest.mark.parametrize("grid, summary", [
    (["--rmax", "2", "--dr", "0.5", "--T", "0.4"], "simulated 2 levels to t=0.5 on 3 radii"),
    (["--rmax", "2", "--dr", "0.05", "--T", "1.5", "--cfl", "0.8"],
     "simulated 38 levels to t=1.48 on 21 radii"),
])
def test_simulate_summary_names_the_final_time(tmp_path, capsys, grid, summary):
    # the run takes round(T/dt) steps, so it can end past T or short of it
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--preset", "ground-state", "--rmin", "1", *grid,
                    "--out", str(out)]) == 0
    assert capsys.readouterr().err.strip() == summary
