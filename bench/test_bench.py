"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import json
import re
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *tracing.PER_LAYER]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_printed_metrics_are_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "verify",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_TASKS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    for name in [*run.END_TO_END, "failed_frac"]:
        assert re.search(rf"^  {re.escape(name)} ", proc.stderr, re.M), name


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    def generate(seed, index, name):
        path = tmp_path / name
        workloads.write_radiation_input(path, workloads.radiation_coefficients(seed, index))
        return path.read_bytes()

    first = generate(7, 0, "a.csv")
    assert generate(7, 0, "b.csv") == first
    assert generate(8, 0, "c.csv") != first
    assert generate(7, 1, "d.csv") != first


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [9, 12]
    # (running past the root's end); [1, 4] has the child [2, 3].
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tail_percentile():
    assert run.tail(list(range(50))) == (39, 80.0)       # ten samples above x[39]
    assert run.tail(list(range(40))) == (29, 75.0)
    assert run.tail(list(range(20))) == (14, 75.0)       # floored at the upper quartile
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 75.0)


def _state(modules, classes):
    return ({m.__name__: dict(vars(m)) for m in modules},
            {c.__qualname__: dict(vars(c)) for c in classes})


def _assert_identical(before, after):
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        for owner in b:
            assert b[owner].keys() == a[owner].keys(), owner
            changed = [k for k in b[owner] if b[owner][k] is not a[owner][k]]
            assert not changed, (owner, changed)


def test_traced_run_restores_every_attribute(tmp_path):
    import exwave.cli  # noqa: F401  (loads every exwave module)
    from exwave import profiles, radiation

    modules = tracing._exwave_modules()
    classes = (profiles.SelfSimilarProfile, radiation.RadiationProfile, radiation.RadialData)
    before = _state(modules, classes)
    out = run.trace(workloads.Verify(), 1, tmp_path / "w", n_tasks=1)
    assert not out.failures and out.attempted == 2 and out.spans
    assert out.rows["ode.solves"][0] == 32
    _assert_identical(before, _state(modules, classes))


def test_missing_function_reports_its_metrics_absent(tmp_path):
    renamed = tuple(dataclasses.replace(t, attr="find_nu2_renamed") if t.attr == "find_nu2" else t
                    for t in tracing.TARGETS)
    out = run.trace(workloads.Verify(), 1, tmp_path / "w", n_tasks=1, targets=renamed)
    assert not out.failures
    for name in ("profiles.find_nu2_s", "profiles.find_nu2_solves"):
        value, _, _, note = out.rows[name]
        assert value is None and "find_nu2_renamed" in note
    assert out.rows["profiles.inverse_phi_roots"][0] == 35
    assert set(out.rows) == set(tracing.PER_LAYER)


class _WrongNu0(workloads.Verify):
    def invocations(self, task_dir, seed, index):
        return [[*argv, "--nu0", "1.0"] for argv in super().invocations(task_dir, seed, index)]


class _PerturbedSample(workloads.Radiation):
    def invocations(self, task_dir, seed, index):
        calls = super().invocations(task_dir, seed, index)
        path = task_dir / "profile.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        s, g = lines[301].split(",")          # sample 300 of 601 sits at s = 0
        lines[301] = f"{s},{float(g) + 0.01!r}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return calls


class _TinyBudget(workloads.Verify):
    budget_s = 0.05


@pytest.mark.parametrize("workload, reason", [
    (_WrongNu0(), "exited 3"),
    (_PerturbedSample(), "alpha1"),
    (_TinyBudget(), "budget"),
])
def test_negative_controls_count_as_failed(tmp_path, workload, reason):
    out = run.measure(workload, 5, 0.0, tmp_path / "w", min_tasks=1, setup_repeats=1)
    assert out.setup_ok and out.attempted == 1
    assert len(out.failures) == 1 and reason in out.failures[0][1]
    assert out.rows["failed_frac"][0] == 1.0
    assert out.rows["tasks_per_s"][0] == 0.0


def test_malformed_output_is_a_failure(tmp_path):
    (tmp_path / "diag.json").write_text("{}", encoding="utf-8")
    assert "malformed output" in workloads.verdict(workloads.Simulate(), tmp_path, 0, 0)
