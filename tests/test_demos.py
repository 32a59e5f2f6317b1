"""Each demo exits 0, prints ``tests/data/golden/demos/<demo>.stdout`` and
prints nothing on stderr.

A demo that imports no numpy must match its file byte for byte; one that
does gets ``test_golden.py``'s number rule.  A change that alters a demo's
output on purpose rewrites the files with
``python tests/regenerate_golden.py demos`` and lists the change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, _difference

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN = GOLDEN / "demos"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          encoding="utf-8", env=env, cwd=ROOT, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""   # a numpy warning in a demo shows here
    want = (DEMO_GOLDEN / f"{demo.stem}.stdout").read_text(encoding="utf-8")
    through_numpy = "import numpy" in demo.read_text(encoding="utf-8")
    diff = _difference(demo.name, want, proc.stdout, through_numpy)
    assert diff is None, f"{demo.name} stdout: {diff}"
