#!/usr/bin/env python3
"""exwave benchmark: end-to-end CLI runs and a traced per-layer run.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports exwave from ``src/`` there.
``--workload all`` runs every workload in turn.

``--trace 0`` spawns ``python -m exwave.cli`` one child at a time in a closed
loop for ``--seconds`` seconds (at least MIN_TASKS tasks), checks every
task's outputs against the workload's oracle, and reports the end-to-end
metrics.  Each child has a time budget; a timeout, a nonzero exit or a failed
check fails the task.  ``--trace 1`` instead calls ``exwave.cli.main``
in-process on the same generated inputs, TRACE_TASKS tasks each untraced and
traced, and reports per-layer metrics per task.  The traced run does a fixed
number of tasks, not a timed one, so that its counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A table of every
metric with its unit and sample count goes to standard error, and the full
result with the run's context goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckFailed, verdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

SETUP_REPEATS = 5     # fresh `import exwave.cli` per run; setup_s is their median
SETUP_BUDGET_S = 15.0
MIN_TASKS = 3         # unless a task fails: then the loop stops at --seconds
TRACE_TASKS = 5

# name -> unit; the end_to_end list of BENCHMARK.json.
END_TO_END = {
    "task_s": "s",
    "task_s_tail": "s",
    "task_cpu_s": "s",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    timed_out: bool


@dataclasses.dataclass
class TaskRecord:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    failure: str | None


@dataclasses.dataclass
class Outcome:
    """One run: ``rows`` maps metric -> (value, unit, samples, note), with
    value None for an absent metric; ``failures`` lists (task, reason)."""

    rows: dict
    attempted: int
    failures: list
    setup_ok: bool = True
    tasks: list = dataclasses.field(default_factory=list)   # TaskRecords, for the result file
    spans: list = dataclasses.field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, cwd: Path, env: dict, budget_s: float) -> Child:
    """Run one child to completion; wall time is spawn to exit, CPU and peak
    RSS come from its rusage.  The child is killed at ``budget_s``."""
    expired = threading.Event()
    with open(cwd / ".child.out", "wb") as out, open(cwd / ".child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(budget_s, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                 proc.returncode, expired.is_set())


def _stderr_tail(task_dir: Path) -> str:
    lines = (task_dir / ".child.err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_task(workload, seed: int, index: int, work: Path, env: dict) -> TaskRecord:
    task_dir = work / f"task{index}"
    task_dir.mkdir(parents=True)
    children = []
    failure = None
    for argv in workload.invocations(task_dir, seed, index):
        child = spawn([sys.executable, "-m", "exwave.cli", *argv], task_dir, env,
                      workload.budget_s)
        children.append(child)
        what = " ".join(argv[:2])
        if child.timed_out:
            failure = f"`{what}` exceeded its {workload.budget_s:g} s budget"
        elif child.code != 0:
            failure = f"`{what}` exited {child.code}: {_stderr_tail(task_dir)}"
        if failure is not None:
            break
    if failure is None:
        failure = verdict(workload, task_dir, seed, index)
    shutil.rmtree(task_dir)
    return TaskRecord(sum(c.wall_s for c in children), sum(c.cpu_s for c in children),
                      max(c.maxrss_kb for c in children), failure)


def tail(values):
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples above it, but never below p75.

    Below 40 samples the ten-above rule would pick a percentile under p75
    (under the median below 21), so the upper quartile is reported instead;
    the floor also keeps the percentile from jumping as the task count of a
    timed run varies by one."""
    xs = sorted(values)
    n = len(xs)
    pct = max(75.0, 100.0 * (n - 10) / n)
    return xs[max(math.ceil(pct / 100.0 * n), 1) - 1], pct


def measure(workload, seed: int, seconds: float, work: Path,
            min_tasks: int = MIN_TASKS, setup_repeats: int = SETUP_REPEATS):
    """The untraced run: every end-to-end metric, plus ``failed_frac``."""
    env = child_env()
    work.mkdir(parents=True)
    setup = [spawn([sys.executable, "-c", "import exwave.cli"], work, env, SETUP_BUDGET_S)
             for _ in range(setup_repeats)]
    setup_ok = all(c.code == 0 and not c.timed_out for c in setup)
    records = []
    start = time.perf_counter()
    # A failing (say, hanging) program must not keep the run going for
    # MIN_TASKS budgets, so the minimum only holds while every task passes.
    while (time.perf_counter() - start < seconds
           or len(records) < min_tasks and all(r.failure is None for r in records)):
        records.append(run_task(workload, seed, len(records), work, env))
    elapsed = time.perf_counter() - start

    n = len(records)
    walls = [r.wall_s for r in records]
    failures = [(i, r.failure) for i, r in enumerate(records) if r.failure is not None]
    tail_s, pct = tail(walls)
    rss_kb = max([r.maxrss_kb for r in records] + [c.maxrss_kb for c in setup])
    rows = {
        "task_s": (statistics.median(walls), n, "median"),
        "task_s_tail": (tail_s, n, f"p{pct:.4g}"),
        "task_cpu_s": (statistics.median(r.cpu_s for r in records), n,
                       "median user+sys of the task's children"),
        "tasks_per_s": ((n - len(failures)) / elapsed, n,
                        f"passed tasks / {elapsed:.1f} s of loop"),
        "setup_s": (statistics.median(c.wall_s for c in setup), len(setup),
                    "median fresh `import exwave.cli`"),
        "peak_rss_mb": (rss_kb / 1024.0, n + len(setup), "largest child ru_maxrss"),
    }
    rows = {name: (value, END_TO_END[name], samples, note)
            for name, (value, samples, note) in rows.items()}
    rows["failed_frac"] = (len(failures) / n, "ratio", n, f"{len(failures)}/{n} tasks failed")
    return Outcome(rows, n, failures, setup_ok, records)


def _run_inprocess(cli, calls, task_dir: Path) -> None:
    """Call ``cli.main`` for each argument list in ``task_dir``; a nonzero
    exit raises CheckFailed."""
    cwd = os.getcwd()
    os.chdir(task_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            for argv in calls:
                code = cli.main(argv)
                if code != 0:
                    raise CheckFailed(f"`{' '.join(argv[:2])}` returned {code}: "
                                      f"{err.getvalue().strip()}")
    finally:
        os.chdir(cwd)


def _import_seconds() -> float:
    """Seconds a fresh interpreter spends importing exwave.cli, start-up excluded."""
    code = ("import time; t = time.perf_counter(); import exwave.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, timeout=SETUP_BUDGET_S, check=True)
    return float(out.stdout)


def trace(workload, seed: int, work: Path, n_tasks: int = TRACE_TASKS, targets=None):
    """The traced run: every per-layer metric, per task."""
    import_s = statistics.median(_import_seconds() for _ in range(3))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import exwave.cli as cli
    tracer = tracing.Tracer()
    work.mkdir(parents=True)
    timed = {False: 0.0, True: 0.0}
    failures = []
    bytes_out = 0
    warm = work / "warmup"
    warm.mkdir()
    # First calls pay lazy set-up, so one task runs untimed; a failure here
    # shows again in the timed tasks.
    with contextlib.suppress(Exception):
        _run_inprocess(cli, workload.invocations(warm, seed, 0), warm)
    shutil.rmtree(warm)
    for index in range(n_tasks):
        task_dir = work / f"task{index}"
        task_dir.mkdir()
        calls = workload.invocations(task_dir, seed, index)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            inst = None
            if traced:
                tracer.task = index
                inst = tracing.install(tracer, tracing.TARGETS if targets is None else targets)
            t0 = time.perf_counter()
            try:
                _run_inprocess(cli, calls, task_dir)
                timed[traced] += time.perf_counter() - t0
            except Exception as exc:  # in-process, a crash is this task's failure
                failures.append((index, f"{type(exc).__name__}: {exc}"))
            else:
                why = verdict(workload, task_dir, seed, index)
                if why is not None:
                    failures.append((index, why))
            finally:
                if inst is not None:
                    inst.restore()
            if traced:
                bytes_out += sum((task_dir / name).stat().st_size
                                 for name in workload.outputs if (task_dir / name).exists())
        shutil.rmtree(task_dir)

    values = tracing.layer_values(tracer, n_tasks)
    values["cli.import_s"] = import_s
    values["cli.bytes_out"] = bytes_out / n_tasks
    values["trace.overhead_frac"] = tracing.ratio(timed[True] - timed[False], timed[False])
    rows = {name: (values[name], unit, n_tasks, "")
            for name, unit in tracing.PER_LAYER.items() if name not in tracer.absent}
    for name, reason in tracer.absent.items():
        rows[name] = (None, tracing.PER_LAYER[name], 0, f"absent: {reason}")
    return Outcome(rows, 2 * n_tasks, failures, spans=tracer.spans)


def _cpu_ticks():
    """Aggregate CPU tick counters from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def context(load_before, ticks_before) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        caches = {k.strip(): v.strip() for k, _, v in
                  (line.partition(":") for line in lscpu.splitlines()) if "cache" in k}
    except (OSError, subprocess.SubprocessError):
        caches = {}
    ticks_after = _cpu_ticks()
    steal = None
    if ticks_before and ticks_after and len(ticks_after) > 7:
        delta = [a - b for a, b in zip(ticks_after, ticks_before)]
        steal = delta[7] / max(sum(delta), 1)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu_steal_frac": steal,   # share of CPU time the hypervisor gave elsewhere
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "caches": caches,
    }


def report(name: str, seed: int, seconds: float, traced: bool, out: Outcome, ctx: dict) -> dict:
    """Print the table to stderr, write the full result file and return the
    result line."""
    print(f"exwave benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)} attempted={out.attempted} failed={len(out.failures)}",
          file=sys.stderr)
    print(f"  {'metric':<38} {'value':>14} {'unit':<15} {'samples':>7}  note", file=sys.stderr)
    for metric, (value, unit, samples, note) in out.rows.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {metric:<38} {shown:>14} {unit:<15} {samples:>7}  {note}", file=sys.stderr)
    for index, why in out.failures:
        print(f"  task {index} failed: {why}", file=sys.stderr)
    print("  context: " + json.dumps(ctx), file=sys.stderr)

    wanted = tuple(out.rows) if traced else tuple(END_TO_END)
    line = {
        "correct": out.setup_ok and not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {m: {"value": out.rows[m][0], "unit": out.rows[m][1]}
                    for m in wanted if out.rows[m][0] is not None},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}"
    full = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "context": ctx,
        "metrics": {m: dict(zip(("value", "unit", "samples", "note"), row))
                    for m, row in out.rows.items()},
        "failures": [{"task": i, "reason": why} for i, why in out.failures],
        "tasks": [dataclasses.asdict(t) for t in out.tasks],
        "result": line,
    }
    stem.with_suffix(".json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    if out.spans:
        Path(f"{stem}-spans.json").write_text(
            json.dumps({"fields": tracing.SPAN_FIELDS, "spans": out.spans}), encoding="utf-8")
    return line


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]()
    load_before, ticks_before = os.getloadavg(), _cpu_ticks()
    work = WORK_DIR / f"{name}-{os.getpid()}"
    try:
        out = trace(workload, seed, work) if traced else measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            WORK_DIR.rmdir()
    return report(name, seed, seconds, traced, out, context(load_before, ticks_before))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "exwave" / "cli.py").is_file():
        print(f"error: {SRC / 'exwave'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run(name, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
