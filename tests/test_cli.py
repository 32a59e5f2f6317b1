import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from exwave import cli


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


def _python_with_exwave(code):
    import exwave
    src = os.path.dirname(os.path.dirname(os.path.abspath(exwave.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_loads_no_scipy():
    proc = _python_with_exwave("import sys, exwave.cli\n" + _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_scipy(tmp_path):
    out = tmp_path / "report.json"
    proc = _python_with_exwave(
        "import sys\nfrom exwave.cli import main\n"
        f"assert main(['verify', '--out', {str(out)!r}]) == 0\n" + _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_verify_non_finite_tolerance_exits_1(tmp_path):
    start = time.perf_counter()
    assert run_cli(["verify", "--tol", "nan", "--out", str(tmp_path / "r.json")]) == 1
    assert time.perf_counter() - start < 1.0
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
    # both or neither source
    assert run_cli(["simulate", "--rmin", "0.5", "--rmax", "8.5",
                    "--dr", "0.02", "--T", "1"]) == 1


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
