import importlib.util
from pathlib import Path

import porous
from porous import analysis, geometry, verification

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_once():
    names = porous.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(porous, name)]
    assert missing == []


def test_bench_tracer_patches_every_name_it_names():
    # the benchmark's tracer patches porous functions and methods by name,
    # so dropping or renaming one breaks the benchmark, not the package
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
