"""Rewrite the golden CLI outputs of tests/test_golden.py, and the demo
outputs of tests/test_demos.py (the case ``demos``), from the code as it is
now.  Run it only in a change that alters an output on purpose, and list
every changed number in that change's record:

    PYTHONPATH=src python tests/regenerate_golden.py              # every case
    PYTHONPATH=src python tests/regenerate_golden.py verify ...   # the cases named
"""

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_demos import DEMO_GOLDEN, DEMOS, run_demo  # noqa: E402
from test_golden import CASES, GOLDEN, run_case  # noqa: E402


def main(names) -> None:
    unknown = sorted(set(names) - set(CASES) - {"demos"})
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; the cases are "
                 f"{', '.join(CASES)}, demos")
    # in CASES order, so a case whose input is another case's output reads the new one
    for name in [n for n in CASES if not names or n in names]:
        outputs = run_case(name)
        case_dir = GOLDEN / name
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir(parents=True)
        for file_name, text in outputs.items():
            (case_dir / file_name).write_bytes(text.encode("utf-8"))
        print(f"{name}: {', '.join(outputs)}")
    if not names or "demos" in names:
        DEMO_GOLDEN.mkdir(exist_ok=True)
        for demo in DEMOS:
            proc = run_demo(demo)
            if proc.returncode:
                sys.exit(f"{demo.name} exited {proc.returncode}:\n{proc.stderr}")
            (DEMO_GOLDEN / f"{demo.stem}.stdout").write_bytes(proc.stdout.encode("utf-8"))
        print(f"demos: {', '.join(d.stem for d in DEMOS)}")


if __name__ == "__main__":
    main(sys.argv[1:])
