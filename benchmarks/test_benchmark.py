"""Tests of the benchmark itself, on the smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from child import Loop  # noqa: E402
from tracing import COUNTERS, LAYERS, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def printed_units(report):
    """Metric name -> unit from the report lines "<name> <value> <unit> ..."."""
    return {parts[0]: parts[2] for parts in (line.split() for line in report)
            if len(parts) >= 3 and not parts[0].startswith(("==", "env", "fail_ratio"))}


def smoke(workload, trace, seed=7):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result, report = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert printed_units(report) == run.END_TO_END
    assert any(line.startswith("fail_ratio 0 ") for line in report)
    assert any(line.startswith("env nproc=") and "numpy=" in line and "scipy=" in line
               for line in report)


COUNT_METRICS = [name for name, unit in metric_units().items() if unit != "s"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, report = smoke(workload, 1)
    second, _ = smoke(workload, 1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == metric_units()
    assert {k: v for k, v in printed_units(report).items() if k != "spans"} == metric_units()
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts["trace.spans"] > 0


def test_trace_covers_validation_only_below_the_cross_limit():
    solve, _ = smoke("solve_euclid", 1)
    triple, _ = smoke("triple_scale", 1)
    # 20 clients + 20 facilities, validated once when the solve loads the file
    assert solve["metrics"]["metric.validate.calls"]["value"] == 1
    assert solve["metrics"]["metric.validate.triples"]["value"] == 40 ** 3
    assert solve["metrics"]["objectives.profile.cells"]["value"] == 20 * 20
    # the smoke triple sizes straddle the cross limit: only 10+90 clients
    # plus 3 facilities are validated
    assert triple["metrics"]["metric.validate.calls"]["value"] == 1
    assert triple["metrics"]["metric.validate.triples"]["value"] == 103 ** 3
    assert triple["metrics"]["generators.clients"]["value"] == 100 + 3000


def _perturb_ratio(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["ratios"][0] *= 1.0 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _add_violation(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["violations_total"] = 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


CORRUPTIONS = {
    "solve_euclid": lambda outcome: (_perturb_ratio(outcome[1]), outcome)[1],
    "verify_sweep": lambda outcome: (_add_violation(outcome[-1][1]), outcome)[1],
    "triple_scale": lambda outcome: [(k, n, worst * (1.0 + 1e-6), v)
                                     for k, n, worst, v in outcome],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_is_a_failed_op(workload, tmp_path):
    wl = WORKLOADS[workload]("smoke", str(tmp_path))
    op = wl.op(3, 0)
    loop = Loop(wl)
    loop.attempt(op)
    assert (loop.attempted, loop.failed, len(loop.op_times)) == (1, 0, 1)

    real_run = wl.run
    wl.run = lambda op: CORRUPTIONS[workload](real_run(op))
    loop.attempt(op)
    assert (loop.attempted, loop.failed, len(loop.op_times)) == (2, 1, 1)


def test_failing_exit_code_is_a_failed_op(tmp_path, monkeypatch):
    import centrum.cli

    wl = WORKLOADS["verify_sweep"]("smoke", str(tmp_path))
    loop = Loop(wl)
    monkeypatch.setattr(centrum.cli, "run", lambda argv: 3)
    loop.attempt(wl.op(3, 0))
    assert (loop.attempted, loop.failed, loop.items) == (1, 1, 0)


def test_tail_needs_ten_samples_above():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert run.tail([float(i) for i in range(20)]) == (9.5, 50.0)
    assert run.tail([float(i) for i in range(21)]) == (10.0, 100.0 * 11 / 21)
    value, pct = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100.0 * 20 / 30)


def test_child_env_pins_threads(monkeypatch):
    monkeypatch.setenv("CENTRUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "64")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = run.child_env(2)
    assert "CENTRUM_THREADS" not in env
    assert env["OMP_NUM_THREADS"] == "2" and env["OPENBLAS_NUM_THREADS"] == "2"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == os.path.join(ROOT, "src")


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "triple_scale", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layers_name_public_functions():
    import importlib

    for layer, (module, names) in LAYERS.items():
        home = importlib.import_module("centrum." + module)
        for name in names:
            assert callable(getattr(home, name)), (layer, name)
    assert set(COUNTERS) <= {n for _, names in LAYERS.values() for n in names}
