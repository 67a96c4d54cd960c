"""The benchmark's own test: smoke runs of every workload, and oracles that can fail.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from birthdeath import measure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0",
                                "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "env: " in done.stdout and "fail_frac = 0.0" in done.stdout


def test_declared_metrics_match_the_code():
    import run
    import tracing

    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_lab_oracle_fails_on_exit_code_missing_csv_and_fail_row(tmp_path):
    for experiment in workloads.LAB_EXPERIMENTS:
        (tmp_path / f"lab_{experiment}.csv").write_text("case,verdict\n0,PASS\n")
    assert all(c.ok for c in workloads.lab_csv_checks(0, tmp_path))
    assert not workloads.lab_csv_checks(1, tmp_path)[0].ok
    (tmp_path / "lab_null_set.csv").write_text("case,verdict\n0,PASS\n1,FAIL\n")
    (tmp_path / "lab_extinction.csv").unlink()
    failed = [c.name for c in workloads.lab_csv_checks(0, tmp_path) if not c.ok]
    assert failed == ["lab_null_set.csv all PASS", "lab_extinction.csv all PASS"]


def test_reach_oracles_fail_on_a_bound_above_the_frequency_or_a_fail_verdict():
    assert workloads.corridor_check(0, 1e-9, 1e-3).ok
    assert not workloads.corridor_check(0, 2e-3, 1e-3).ok
    assert not workloads.corridor_check(0, 0.0, 1e-3).ok
    assert workloads.pipeline_check(0, "PASS").ok
    assert not workloads.pipeline_check(0, "FAIL").ok


def test_measure_oracles_fail_on_a_wrong_expected_measure_or_distance(tmp_path):
    inputs = workloads.WORKLOADS["measure-balls"].setup(5, True, tmp_path)
    outputs = workloads.WORKLOADS["measure-balls"].job(inputs)
    checks = workloads.WORKLOADS["measure-balls"].checks(inputs, outputs)
    assert checks and all(c.ok for c in checks)

    window_is_ball, spec = next((s["window_is_ball"], s) for s in inputs["sets"]
                                if s["label"] == "d1 n1")
    value = outputs["results"][0][0]
    assert window_is_ball
    assert workloads.measure_check("d1 n1", value, spec["exact"], spec["scale"],
                                   spec["samples"], True).ok
    assert not workloads.measure_check("d1 n1", value * (1 + 1e-9), spec["exact"],
                                       spec["scale"], spec["samples"], True).ok

    spec = inputs["sets"][3]
    layer_set = spec["layer_set"]
    estimate = measure.lp_measure_estimate(layer_set.layer, spec["window"], layer_set.contains,
                                           2000, seed=7)
    assert workloads.measure_check("d1 n4", estimate.value, spec["exact"], spec["scale"], 2000).ok
    assert not workloads.measure_check("d1 n4", estimate.value, 2.0 * spec["exact"],
                                       spec["scale"], 2000).ok

    _, distances, members = outputs["results"][3]
    expected = list(spec["expected"])
    assert workloads.metric_check("d1 n4", workloads.BALL_RADIUS, expected, distances, members).ok
    expected[0] *= 1.0 + 1e-12
    assert not workloads.metric_check("d1 n4", workloads.BALL_RADIUS, expected,
                                      distances, members).ok
    assert not workloads.metric_check("d1 n4", workloads.BALL_RADIUS, spec["expected"],
                                      distances, [not m for m in members]).ok


def test_trace_count_oracles_fail_on_a_wrong_count(tmp_path):
    lab = workloads.WORKLOADS["lab-readme"]
    inputs = lab.setup(5, True, tmp_path)
    steps = inputs["sizes"]["null_replicas"] * inputs["sizes"]["null_max_steps"] * 2
    assert lab.trace_checks(inputs, {"lab.null_set.replica_steps": steps})[0].ok
    assert not lab.trace_checks(inputs, {"lab.null_set.replica_steps": steps - 1})[0].ok

    balls = workloads.WORKLOADS["measure-balls"]
    inputs = balls.setup(5, True, tmp_path)
    samples = sum(s["samples"] for s in inputs["sets"])
    candidates = sum(len(s["candidates"]) for s in inputs["sets"])
    counts = {"measure.predicate.calls": samples,
              "configurations.in_ball.calls": samples + candidates,
              "configurations.distance_rho.calls": candidates}
    assert balls.trace_checks(inputs, counts)[0].ok
    counts["configurations.in_ball.calls"] += 1
    assert not balls.trace_checks(inputs, counts)[0].ok
