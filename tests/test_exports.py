import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import porous
from porous import analysis, geometry, verification

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = porous.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(porous, name)]
    assert missing == []
    # and every public name the package imports is exported
    tree = ast.parse(Path(porous.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(name for name in imported
                  if not name.startswith("_") and name not in names) == []


def _bench_module(name: str):
    """A module of the benchmark harness, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_patches_every_name_it_names():
    # the benchmark's tracer patches porous functions and methods by name,
    # so dropping or renaming one breaks the benchmark, not the package
    layers = _bench_module("layers")
    originals = (verification.budget, analysis.mollify,
                 geometry.ScalarField.values)
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        patched = len(tracer._restore)
        assert verification.budget is not originals[0]
    finally:
        tracer.restore()
    assert patched > 0
    assert (verification.budget, analysis.mollify,
            geometry.ScalarField.values) == originals


@pytest.mark.parametrize("workload, key", [
    ("build", "build/demo-seed-0"),
    ("audit-planes", "audit-planes/plane[0]"),
    ("audit-sweep", "audit-sweep/analysis")])
def test_bench_operation_matches_its_reference_rows(workload, key, tmp_path):
    # one operation of each benchmark workload, set up, run and gated as
    # the benchmark does; the gate raises when a report's row ids or
    # statuses differ from the stored reference.  The byte digests it
    # returns depend on the numpy version, so they are not compared.
    workloads = _bench_module("workloads")
    ws = workloads.setup(workload, 0, tmp_path / "setup")
    (op,) = [op for op in ws.ops if op.key == key]
    reports = workloads.run_op(ws, op, tmp_path / "op")
    workloads.check(op, reports, workloads.load_reference())
