"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tmp_cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                  "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        prefix = "layer" if trace else "metric"
        assert any(line.startswith(f"{prefix} {m['name']} = ")
                   and f" {m['unit']} (" in line for line in lines), m["name"]
    assert any(line.startswith("metric error_rate = ") for line in lines)


def _smoke_runner(workload):
    import thermoshift
    items = workloads.generate(workload, 5, 0, smoke=True)
    runner = run.Runner(thermoshift, ROOT)
    runner.prepare(items)
    return runner, items


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_correct_outputs_pass_their_checks(workload):
    runner, items = _smoke_runner(workload)
    latencies, _, failures = runner.run_pass(items)
    assert failures == []
    assert len(latencies) >= len(items)


@pytest.mark.xfail(strict=True, reason="rotation_set at m = 3 reports "
                   "non-extreme orbit averages as vertices")
def test_m3_rotation_sets_pass_their_checks():
    runner, items = _smoke_runner("rotation-m3")
    _, _, failures = runner.run_pass(items)
    assert failures == []


def test_a_wrong_beta_is_counted_as_a_failed_op():
    runner, items = _smoke_runner("scalar-classify")

    def corrupt(item, result):
        if item["op"] == "classify":
            return dataclasses.replace(result, beta=result.beta + 1)
        return result

    _, _, failures = runner.run_pass(items, corrupt=corrupt)
    classified = sum(1 for item in items if item["op"] == "classify")
    assert len(failures) == classified
    assert all("beta" in f["error"] and "input" in f["op"] for f in failures)


def test_same_seed_gives_the_same_digest():
    for w in workloads.WORKLOADS:
        a = workloads.digest(workloads.generate(w, workloads.DEFAULT_SEED, 0))
        b = workloads.digest(workloads.generate(w, workloads.DEFAULT_SEED, 0))
        c = workloads.digest(workloads.generate(w, workloads.HELDOUT_SEED, 0))
        d = workloads.digest(workloads.generate(w, workloads.DEFAULT_SEED, 1))
        assert a == b
        assert len({a, c, d}) == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "scalar-classify", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
