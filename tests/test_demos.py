"""Smoke runs of the demos: the ones that take a family run on the
session's family, the others build or need none."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from porous import serialize_family

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(demo, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    return run


@pytest.mark.parametrize("demo", ["02_plane_coverage_and_porosity.py",
                                  "04_budget_audit.py"])
def test_demo_passes_on_the_demo_family(demo, demo_family, tmp_path):
    family_path = tmp_path / "family.jsonl"
    family_path.write_text(serialize_family(demo_family))
    run = _run_demo(demo, "--family", family_path)
    lines = run.stdout.splitlines()
    # the demo reused the family instead of rebuilding it
    assert lines[0] == f"family <- {family_path}"
    assert "verdict: pass" in lines


def test_build_demo_writes_a_passing_family(tmp_path):
    family_path = tmp_path / "family.jsonl"
    run = _run_demo("01_build_hole_family.py", "--out", family_path)
    assert "FAIL" not in run.stdout
    assert family_path.exists()


def test_smoothing_toolkit_demo_passes():
    # builds mollified, cutoff and blended fields from their analytic
    # gradients
    run = _run_demo("03_smoothing_toolkit.py")
    assert "FAIL" not in run.stdout
    assert "all rows pass" in run.stdout.splitlines()
