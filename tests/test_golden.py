"""Golden CLI outputs: each command runs in-process through ``cli.main`` and
every output it makes (its files, stdout, stderr and exit code) is compared
with ``tests/data/golden/<case>/``.

The rule:
- An output that no numpy code touched must match the golden file byte for
  byte.  Only ``simulate`` loads numpy, so that is every other subcommand.
- ``simulate``'s outputs go through numpy (``np.cbrt``, ``np.trapezoid`` and
  the extraction's LAPACK 3 x 3 solve), whose last bits may differ between
  numpy releases and CPUs.
  For them the line count, and every character outside a number (headers,
  separators, JSON keys, words), must match exactly.  Integers must match
  exactly.  Every other number may differ from the golden one by one unit
  in its last printed digit, plus ``ULPS_OWN`` ulps of itself, plus
  ``ULPS_COLUMN`` ulps of the largest magnitude among it and its two
  neighbours in its column.  The last term bounds the rounding noise of a
  sum whose terms cancel: a leapfrog value is summed from its neighbours,
  and a value near zero is mostly such noise.  A column is a place on the
  line in CSV and stderr, and a key path in JSON, with list positions after
  the first kept.  No number may be printed with more digits than every
  golden number of its column.
- The set of files a command leaves behind must be the golden set.
- Every golden number is finite: JSON holds no NaN or Infinity, which are
  not JSON, and no CSV cell is nan or inf.

A PR that changes an output on purpose regenerates the case with
``python tests/regenerate_golden.py CASE...`` and lists the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "golden"
ULPS_OWN = 4096
ULPS_COLUMN = 16

_GS = ["--rmin", "1", "--rmax", "3", "--dr", "0.05", "--T", "0.5"]

# case name: (argv, inputs copied into the working directory, as name: golden path)
CASES = {
    "verify": (["verify", "--out", "report.json", "--table", "table.csv"], {}),
    "verify-nu0-1": (["verify", "--nu0", "1.0", "--out", "report.json",
                      "--table", "table.csv"], {}),
    "table1": (["table1"], {}),
    "constants": (["constants"], {}),
    **{f"profile-{nu}": (["profile", "--nu", nu], {}) for nu in ("0.05", "1.86", "5", "10")},
    "radiation-to-data": (["radiation", "to-data", "--in", "profile.csv", "--out", "data.csv"],
                          {"profile.csv": "inputs/profile.csv"}),
    "radiation-from-data": (["radiation", "from-data", "--in", "data.csv", "--n", "301",
                             "--out", "profile.csv"],
                            {"data.csv": "radiation-to-data/data.csv"}),
    "radiation-residues": (["radiation", "residues", "--in", "profile.csv", "--R", "2"],
                           {"profile.csv": "inputs/profile.csv"}),
    "radiation-asymptotic": (["radiation", "asymptotic", "--in", "profile.csv"],
                             {"profile.csv": "inputs/profile.csv"}),
    "missing-input": (["radiation", "residues", "--in", "missing.csv", "--out", "x.json"], {}),
    "simulate-ground-state": (["simulate", "--preset", "ground-state", *_GS,
                               "--diag", "diag.json"], {}),
    "simulate-blow-up": (["simulate", "--preset", "self-similar", "--nu", "20", "--rmin", "0.5",
                          "--rmax", "4.5", "--dr", "0.05", "--T", "3", "--out", "traj.csv",
                          "--diag", "diag.json"], {}),
    "simulate-free-wave": (["simulate", "--preset", "free-wave", "--gspec", "bump:-1:1:1",
                            "--rmin", "0.5", "--rmax", "8", "--dr", "0.1", "--T", "6",
                            "--out", "traj.csv", "--diag", "diag.json"], {}),
    "simulate-data": (["simulate", "--data", "data.csv", "--rmin", "0.5", "--rmax", "3",
                       "--dr", "0.05", "--T", "0.5", "--out", "traj.csv", "--diag", "diag.json"],
                      {"data.csv": "radiation-to-data/data.csv"}),
}


def run_case(name: str) -> dict[str, str]:
    """Every output of one case: the files it leaves in a fresh working
    directory, and 'stdout', 'stderr' and 'exit_code'."""
    from exwave import cli

    argv, inputs = CASES[name]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for dest, src in inputs.items():
            shutil.copyfile(GOLDEN / src, os.path.join(work, dest))
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
        finally:
            os.chdir(home)
        outputs = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit_code": f"{code}\n"}
        for entry in sorted(os.listdir(work)):
            if entry not in inputs:
                with open(os.path.join(work, entry), encoding="utf-8", newline="") as fh:
                    outputs[entry] = fh.read()
    return outputs


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _numbers_agree(want: str, got: str, scale: float) -> bool:
    decimals = [t for t in (want, got) if re.search(r"[.eE]", t)]
    if not decimals:   # two integers: a count
        return want == got
    # one unit in the finer last printed digit: "1" and "0.999999999999" are
    # 12-digit neighbours
    unit = min(10.0 ** Decimal(t).as_tuple().exponent for t in decimals)
    bound = unit + ULPS_OWN * math.ulp(float(want)) + ULPS_COLUMN * math.ulp(scale)
    return abs(float(got) - float(want)) <= bound


def _line_difference(want: str, got: str, start: int = 1) -> str:
    """The first differing line of two texts, and its first differing number;
    the first line is line ``start``."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=start):
        if w != g:
            pairs = [(a, b) for a, b in zip(_NUMBER.findall(w), _NUMBER.findall(g)) if a != b]
            first = f": golden {pairs[0][0]}, got {pairs[0][1]}" if pairs else ""
            return f"line {i}{first}\n  golden {w[:200]!r}\n  got    {g[:200]!r}"
    return f"{len(want_lines)} lines in the golden file, {len(got_lines)} now"


def _digits(text: str) -> int:
    """Significant digits printed in a number."""
    return len(Decimal(text).normalize().as_tuple().digits)


def _first_disagreement(cells) -> str | None:
    """The first of (place, column, golden text, text now) number cells that
    breaks the bound of the module docstring, or that is printed with more
    digits than any golden number of its column."""
    columns: dict = {}
    for n, (_, column, _, _) in enumerate(cells):
        columns.setdefault(column, []).append(n)
    scale, digits = [0.0] * len(cells), [0] * len(cells)
    for members in columns.values():
        mags = [abs(v) if math.isfinite(v := float(cells[n][2])) else 0.0 for n in members]
        most = max(_digits(cells[n][2]) for n in members)
        for j, n in enumerate(members):
            scale[n], digits[n] = max(mags[max(j - 1, 0):j + 2]), most
    for (place, _, want, got), s, most in zip(cells, scale, digits):
        if not _numbers_agree(want, got, s) or _digits(got) > most:
            return f"{place}: golden {want}, got {got}"
    return None


def _tolerant_text_difference(want: str, got: str) -> str | None:
    """CSV and stderr: the line count and the text between numbers exact;
    a column is a number's place on its line."""
    want_lines, got_lines = want.splitlines(True), got.splitlines(True)
    if len(want_lines) != len(got_lines):
        return f"{len(want_lines)} lines in the golden file, {len(got_lines)} now"
    cells = []
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if _NUMBER.split(w) != _NUMBER.split(g):
            return _line_difference(w, g, i)
        cells += [(f"line {i}, number {k}", k, a, b) for k, (a, b) in
                  enumerate(zip(_NUMBER.findall(w), _NUMBER.findall(g)), start=1)]
    return _first_disagreement(cells)


def _leaves(obj, path=()):
    """(key path, value) of every leaf of parsed JSON; the first list
    position of a path is '*', so each column of a list of rows is one key."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        starred = "*" in path
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i if starred else "*",))
    else:
        yield path, obj


def _tolerant_json_difference(want: str, got: str) -> str | None:
    """JSON: the same keys, list lengths and non-float values; a column is a
    key path."""
    w_leaves, g_leaves = list(_leaves(json.loads(want))), list(_leaves(json.loads(got)))
    if [p for p, _ in w_leaves] != [p for p, _ in g_leaves]:
        return "the JSON structure differs: " + _line_difference(want, got)
    cells = []
    for i, ((path, a), (_, b)) in enumerate(zip(w_leaves, g_leaves), start=1):
        place = f"value {i} ({'/'.join(map(str, path))})"
        if isinstance(a, float) and isinstance(b, float):
            cells.append((place, path, repr(a), repr(b)))
        elif a != b or type(a) is not type(b):
            return f"{place}: golden {a!r}, got {b!r}"
    return _first_disagreement(cells)


def _difference(name: str, want: str, got: str, through_numpy: bool) -> str | None:
    if want == got:
        return None
    if not through_numpy:
        return _line_difference(want, got)
    if name.endswith(".json"):
        return _tolerant_json_difference(want, got)
    return _tolerant_text_difference(want, got)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_the_golden_output(case):
    golden_dir = GOLDEN / case
    want = {p.name: p.read_bytes().decode("utf-8") for p in sorted(golden_dir.iterdir())}
    got = run_case(case)
    assert sorted(got) == sorted(want), "the command left other files than the golden set"
    through_numpy = CASES[case][0][0] == "simulate"
    problems = [f"{name}: {diff}" for name in want
                if (diff := _difference(name, want[name], got[name], through_numpy))]
    assert not problems, "\n".join(problems)


_CSV_HEADER = re.compile(r"[A-Za-z_]\w*(,[A-Za-z_]\w*)+\n")


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def test_golden_outputs_hold_only_finite_numbers():
    n_json = n_csv = 0
    for path in sorted(GOLDEN.glob("*/*")):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json" or text.startswith("{"):
            json.loads(text, parse_constant=_refuse)
            n_json += 1
        elif path.suffix == ".csv" or _CSV_HEADER.match(text):
            header, *lines = text.splitlines()
            for line in lines:
                for column, cell in zip(header.split(","), line.split(",")):
                    # the table's range cell is "lo-hi", with lo > 0
                    numbers = cell.split("-", 1) if column == "range" else [cell]
                    assert all(math.isfinite(float(x)) for x in numbers), (path, line)
            n_csv += 1
    assert n_json >= 9 and n_csv >= 13   # the JSON and CSV outputs, stdout included
