"""Smoke runs of the demos that print a verdict, on the session's family."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from porous import serialize_family

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_plane_coverage_and_porosity.py",
                                  "04_budget_audit.py"])
def test_demo_passes_on_the_demo_family(demo, demo_family, tmp_path):
    family_path = tmp_path / "family.jsonl"
    family_path.write_text(serialize_family(demo_family))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), "--family",
         str(family_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    # the demo reused the family instead of rebuilding it
    assert lines[0] == f"family <- {family_path}"
    assert "verdict: pass" in lines
