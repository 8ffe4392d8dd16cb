"""Self-test of the benchmark harness.

Runs one operation of each workload in-process, untraced and traced, and
checks that every metric in BENCHMARK.json appears with its unit and that
no traced self time is negative.  Run it from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import (KNOWN_FAILING_BUILD_SEED, WORKLOADS,  # noqa: E402
                       make_ops)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def program():
    run.load_program()


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run.measure(workload, seed=0, seconds=0.0, trace=False,
                         max_ops=1)
    assert result["failed"] == 0, result["detail"]["failures"]
    assert {name: unit for name, (_, unit) in result["metrics"].items()} \
        == units("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["detail"]["fail_rate"] == 0.0
    for key in ("nproc", "python", "numpy", "src_lines", "config_sha256",
                "seed", "ops_per_pass", "input_size", "blas_threads"):
        assert key in result["meta"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = run.measure(workload, seed=0, seconds=0.0, trace=True,
                         max_ops=1)
    assert result["failed"] == 0, result["detail"]["failures"]
    assert {name: unit for name, (_, unit) in result["metrics"].items()} \
        == units("per_layer")
    assert result["detail"]["negative_self"] == 0
    assert all(value >= 0 for name, (value, _) in result["metrics"].items()
               if name.endswith(".self_s"))
    assert sum(value for name, (value, _) in result["metrics"].items()
               if name.endswith(".self_s")) > 0


def test_tail_needs_ten_operations_beyond_it():
    assert run.tail([1.0] * 20) == {}
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == {"value": 30.0, "percentile": 75.0,
                               "count": 40}


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        assert make_ops(workload, 3) == make_ops(workload, 3)
    keys = {w: [{op.key for op in make_ops(w, seed)} for seed in (3, 4)]
            for w in WORKLOADS}
    assert keys["build"][0] == keys["build"][1]
    assert keys["audit-planes"][0] == keys["audit-planes"][1]
    assert keys["audit-sweep"][0] != keys["audit-sweep"][1]


def test_known_failing_build_is_a_counted_failure(tmp_path):
    """Demo seed 1 exhausts the address-space cap in StageSpace's dense
    distance block; the harness must count it, not crash."""
    script = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import run
from workloads import Op, Workspace, load_reference
run.cap_memory()
run.load_program()
op = Op(key="build/demo-seed-{KNOWN_FAILING_BUILD_SEED}", which="build",
        demo_seed={KNOWN_FAILING_BUILD_SEED})
stats = run.Stats()
run.run_pass(Workspace(root=None, ops=[op], family=None, spec_paths={{}}),
             [op], load_reference(), stats, __import__("pathlib").Path(
                 {str(tmp_path)!r}))
print(json.dumps({{"attempted": stats.attempted,
                  "failures": stats.failures}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["attempted"] == 1
    assert len(out["failures"]) == 1
    assert "MemoryError" in out["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
