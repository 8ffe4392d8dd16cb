import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

from parametric import (ExtractionError, SurfaceC1, graph_extract,
                        reference_distance, reference_surface)
from porous import (AffinePlane, Ball, BumpSpec, GraphPatch, ParseError,
                    PreconditionError, SamplingBudget, ScalarField,
                    corpus_generate, generate_from_spec, graph_measure_in,
                    load_corpus_spec, sn_membership, substream)
from porous.surfaces import SLOPE_FACTOR
from porous.sampling import sample_shell

WINDOW = Ball([0.5, 0.5, 0.5], 0.25)


# ---------------------------------------------------------------------------
# bump specs
# ---------------------------------------------------------------------------

def test_bump_spec_peak_support_and_slope_constant():
    b = BumpSpec((0.5, 0.5, 0.5), 0.01, 0.25)
    assert b.values(np.array([[0.5, 0.5, 0.5]]))[0] == pytest.approx(0.01)
    assert b.values(np.array([[0.75, 0.5, 0.5]]))[0] == 0.0   # closed edge
    assert b.values(np.array([[0.8, 0.5, 0.5]]))[0] == 0.0
    assert SLOPE_FACTOR == pytest.approx(96.0 / (25.0 * math.sqrt(5.0)))
    assert b.slope_max == pytest.approx(SLOPE_FACTOR * 0.01 / 0.25)


def test_bump_spec_slope_max_is_attained_radially():
    # closed form: |d/du (1-u^2)^3| peaks at u = 1/sqrt(5)
    b = BumpSpec((0.0, 0.0, 0.0), 0.01, 0.2)
    rho = np.linspace(1e-6, 0.2 - 1e-6, 50001)
    pts = np.zeros((len(rho), 3))
    pts[:, 0] = rho
    slopes = np.linalg.norm(b.gradients(pts), axis=1)
    assert float(slopes.max()) == pytest.approx(b.slope_max, rel=1e-8)
    arg = rho[np.argmax(slopes)] / 0.2
    assert arg == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-3)


def test_bump_spec_gradient_matches_finite_differences():
    b = BumpSpec((0.5, 0.4, 0.6), 0.02, 0.3)
    pts = sample_shell(substream(0, "bump-fd"), np.array([0.5, 0.4, 0.6]),
                       0.0, 0.29, 200)
    step = 1e-7
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        fd = (b.values(pts + e) - b.values(pts - e)) / (2 * step)
        assert np.allclose(b.gradients(pts)[:, j], fd, atol=1e-5)


def test_bump_spec_rejects_bad_width():
    with pytest.raises(ValueError):
        BumpSpec((0.0, 0.0, 0.0), 0.1, 0.0)


# ---------------------------------------------------------------------------
# parametric surfaces (tests/parametric.py)
# ---------------------------------------------------------------------------

def test_reference_surface_is_flat_embedding():
    f = reference_surface(3)
    pts = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
    vals = f.value(pts)
    assert np.allclose(vals[:, :3], pts)
    assert np.allclose(vals[:, 3], 0.0)


def test_surface_height_components_add_to_plane():
    plane = AffinePlane(index=1, gradient=np.array([0.01, 0.0, 0.0]),
                        offset=0.002, anchor=np.full(3, 0.5))
    bump = BumpSpec((0.5, 0.5, 0.5), 0.005, 0.2)
    f = SurfaceC1(plane=plane, components=((3, bump),))
    pts = sample_shell(substream(1, "surf"), np.full(3, 0.5), 0.0, 0.2, 64)
    vals = f.value(pts)
    assert np.allclose(vals[:, :3], pts)
    assert np.allclose(vals[:, 3], plane.heights(pts) + bump.values(pts))


def test_surface_horizontal_components_shift_base():
    plane = AffinePlane(index=1, gradient=np.zeros(3), offset=0.0,
                        anchor=np.full(3, 0.5))
    bump = BumpSpec((0.5, 0.5, 0.5), 0.003, 0.2)
    f = SurfaceC1(plane=plane, components=((0, bump),))
    pts = np.array([[0.5, 0.5, 0.5]])
    vals = f.value(pts)
    assert vals[0, 0] == pytest.approx(0.5 + 0.003)
    assert vals[0, 3] == pytest.approx(0.0)


def test_surface_jacobian_matches_finite_differences():
    plane = AffinePlane(index=1, gradient=np.array([0.01, -0.02, 0.0]),
                        offset=0.0, anchor=np.full(3, 0.5))
    f = SurfaceC1(plane=plane, components=(
        (3, BumpSpec((0.5, 0.5, 0.5), 0.004, 0.25)),
        (1, BumpSpec((0.45, 0.55, 0.5), 0.002, 0.2))))
    pts = sample_shell(substream(2, "jac"), np.full(3, 0.5), 0.0, 0.2, 32)
    jac = f.jacobian(pts)
    step = 1e-7
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        fd = (f.value(pts + e) - f.value(pts - e)) / (2 * step)
        assert np.allclose(jac[:, :, j], fd, atol=1e-5)


# ---------------------------------------------------------------------------
# norms and distances
# ---------------------------------------------------------------------------

def test_reference_distance_flat_surface_is_zero():
    probe, certified = reference_distance(reference_surface(3))
    assert probe == pytest.approx(0.0, abs=1e-12)
    assert certified == pytest.approx(0.0, abs=1e-12)


def test_reference_distance_certified_dominates_probe():
    plane = AffinePlane(index=1, gradient=np.array([0.004, 0.0, 0.0]),
                        offset=0.001, anchor=np.full(3, 0.5))
    f = SurfaceC1(plane=plane, components=(
        (3, BumpSpec((0.5, 0.5, 0.5), 0.002, 0.2)),))
    probe, certified = reference_distance(f)
    assert probe <= certified
    assert certified <= (abs(0.001) + 0.004 * math.sqrt(3) * 0.5 + 0.002
                         + plane.slope + SLOPE_FACTOR * 0.002 / 0.2) + 1e-12


# ---------------------------------------------------------------------------
# graph extraction
# ---------------------------------------------------------------------------

def test_graph_extract_affine_recovers_plane_heights():
    grad = np.array([0.004, -0.003, 0.0])
    plane = AffinePlane(index=1, gradient=grad, offset=0.001,
                        anchor=np.full(3, 0.5))
    f = SurfaceC1(plane=plane)
    patch = graph_extract(f, WINDOW, r_bound=1.0)
    pts = sample_shell(substream(4, "affine-extract"), WINDOW.center, 0.0,
                       WINDOW.radius * 0.9, 500)
    assert np.max(np.abs(patch.g.values(pts) - plane.heights(pts))) <= 1e-10
    assert np.max(np.abs(patch.g.gradients(pts) - grad)) <= 1e-8


def test_graph_extract_round_trip_with_horizontal_bump():
    # horizontal perturbation makes the inversion non-trivial; forward
    # evaluation of the surface is the oracle for the recovered heights,
    # on two draws of 1,000 base points (the second was AC7's)
    plane = AffinePlane(index=1, gradient=np.array([0.001, 0.0, 0.0]),
                        offset=0.0, anchor=np.full(3, 0.5))
    f = SurfaceC1(plane=plane, components=(
        (0, BumpSpec((0.5, 0.5, 0.5), 0.0006, 0.3)),
        (3, BumpSpec((0.55, 0.45, 0.5), 0.0006, 0.3))))
    patch = graph_extract(f, WINDOW, r_bound=1.0)
    for rng in (substream(5, "roundtrip"), substream(7, "ac7-roundtrip")):
        u = sample_shell(rng, WINDOW.center, 0.0, WINDOW.radius * 0.8, 1000)
        image = f.value(u)
        heights = patch.g.values(image[:, :3])
        assert np.max(np.abs(heights - image[:, 3])) <= 1e-10


def test_graph_extract_rejects_distant_surface():
    plane = AffinePlane(index=1, gradient=np.array([0.5, 0.0, 0.0]),
                        offset=0.3, anchor=np.full(3, 0.5))
    with pytest.raises(PreconditionError):
        graph_extract(SurfaceC1(plane=plane), WINDOW, r_bound=1.0 / 64.0)
    # inside a wider basin the extraction converges, and the probed size
    # of the extracted field is what fails
    with pytest.raises(ExtractionError, match="probed C¹ size"):
        graph_extract(SurfaceC1(plane=plane), WINDOW, r_bound=1.0 / 64.0,
                      delta=1.0)


def _flat_patch():
    zeros = ScalarField(domain=WINDOW, fn=lambda pts: np.zeros(len(pts)),
                        grad_fn=np.zeros_like, grad_bound=0.0, label="flat")
    return GraphPatch(g=zeros, source="flat", c1_bound=0.0)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
def test_graph_patch_refuses_a_c1_bound_that_is_not_finite_and_nonnegative(
        bad):
    # a NaN or negative bound would pass every C1 ceiling check
    with pytest.raises(ValueError, match="c1_bound must be finite and >= 0"):
        GraphPatch(g=_flat_patch().g, source="flat", c1_bound=bad)


def test_graph_measure_of_flat_patch_is_window_volume():
    patch = _flat_patch()
    est = graph_measure_in(patch, lambda pts: np.ones(len(pts), dtype=bool),
                           SamplingBudget(8, 64))
    assert est.value == pytest.approx(WINDOW.volume(), rel=1e-9)


def test_sn_membership_verdicts():
    patch = _flat_patch()
    everything = lambda pts: np.ones(len(pts), dtype=bool)
    nothing = lambda pts: np.zeros(len(pts), dtype=bool)
    budget = SamplingBudget(8, 64)
    member = sn_membership(patch, everything, WINDOW.volume() / 2, budget)
    assert member.status == "member"
    assert member.margin > 0
    non = sn_membership(patch, nothing, 0.01, budget)
    assert non.status == "non-member"
    exact_line = sn_membership(patch, everything, WINDOW.volume(), budget)
    assert exact_line.status == "indeterminate"
    with pytest.raises(ValueError):
        sn_membership(patch, everything, -1.0, budget)


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def test_plane_corpus_is_the_full_grid():
    params = {"gradients": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0]],
              "offsets": [0.005, 0.006, 0.007]}
    entries = corpus_generate("plane", params, seed=0, window=WINDOW)
    assert len(entries) == 6
    assert all(e.kind == "plane" for e in entries)
    # offsets outer, gradients inner: entry i is offset i // 2, gradient i % 2
    assert [e.patch.source for e in entries] == [f"plane[{i}]"
                                                 for i in range(6)]
    pts = np.array([[0.5, 0.5, 0.5], [0.6, 0.4, 0.5]])
    for i, e in enumerate(entries):
        grad = np.array(params["gradients"][i % 2])
        want = params["offsets"][i // 2] + (pts - 0.5) @ grad
        assert np.allclose(e.patch.g.values(pts), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_plane_sup_is_the_largest_corner_height(n):
    # the plane's certified sup is its largest |height| over the corners
    # of the window's cube, here walked one corner at a time
    window = Ball(np.full(n, 0.4), 0.2)
    rng = substream(n, "plane-corners")
    for _ in range(20):
        grad = rng.uniform(-1e-3, 1e-3, n)
        offset = float(rng.uniform(-1e-2, 1e-2))
        entry, = corpus_generate("plane", {"gradients": [grad.tolist()],
                                           "offsets": [offset]}, 0, window)
        corners = [offset + window.radius * float(np.dot(signs, grad))
                   for signs in itertools.product((-1.0, 1.0), repeat=n)]
        sup = max(abs(h) for h in corners)
        slope = float(np.linalg.norm(grad))
        assert entry.patch.c1_bound == pytest.approx(max(sup, slope),
                                                     rel=1e-14)


@pytest.mark.parametrize("n", [20, 40])
def test_corpus_generation_does_not_walk_the_cube_corners(n):
    # the config admits n up to 63: a corpus group generates there, or is
    # refused with one ValueError, and the plane's sup costs O(n), not 2^n
    window = Ball(np.full(n, 0.5), 0.25)
    bump = {"count": 2, "amplitude": [1e-4, 3e-4], "width": [0.1, 0.2]}
    start = time.process_time()
    planes = corpus_generate("plane", {"gradients": [[1e-3] * n],
                                       "offsets": [0.0]}, 0, window)
    bumps = corpus_generate("bump", bump, 3, window)
    if n == 20:
        assert time.process_time() - start < 0.1
    assert len(planes) == 1 and len(bumps) == 2
    assert planes[0].patch.c1_bound == pytest.approx(n * 1e-3 * 0.25)
    with pytest.raises(ValueError, match="exceeds ceiling"):
        corpus_generate("plane", {"gradients": [[4e-3] * n],
                                  "offsets": [0.0]}, 0, window)


def test_corpus_generation_is_deterministic():
    params = {"count": 5, "amplitude": [1e-4, 3e-4], "width": [0.1, 0.2]}
    a = corpus_generate("bump", params, seed=11, window=WINDOW)
    b = corpus_generate("bump", params, seed=11, window=WINDOW)
    for ea, eb in zip(a, b):
        pts = sample_shell(substream(6, "det"), WINDOW.center, 0.0, 0.2, 64)
        assert np.array_equal(ea.patch.g.values(pts), eb.patch.g.values(pts))
        assert ea.patch.c1_bound == eb.patch.c1_bound
    c = corpus_generate("bump", params, seed=12, window=WINDOW)
    assert any(a[i].patch.c1_bound != c[i].patch.c1_bound for i in range(5))


def test_bump_corpus_lives_on_the_window_it_is_given():
    # a 4-D window of radius 0.2: the fields take (m, 4) points, and each
    # bump, centred in the window, rises somewhere inside it
    window = Ball(np.full(4, 0.3), 0.2)
    params = {"count": 4, "amplitude": [1e-4, 3e-4], "width": [0.1, 0.2]}
    spec = [{"kind": "bump", "params": params, "seed": 5}]
    entries = corpus_generate("bump", params, seed=5, window=window)
    pts = sample_shell(substream(9, "4d"), window.center, 0.0, 0.2, 4096)
    for e, again in zip(entries, generate_from_spec(spec, window)):
        assert e.patch.g.domain is window
        vals = e.patch.g.values(pts)
        assert vals.shape == (4096,) and np.abs(vals).max() > 0.0
        assert e.patch.g.gradients(pts).shape == (4096, 4)
        assert np.array_equal(again.patch.g.values(pts), vals)


def test_corpus_ceiling_is_enforced():
    params = {"count": 1, "amplitude": [0.5, 0.5], "width": [0.1, 0.1]}
    with pytest.raises(ValueError):
        corpus_generate("bump", params, seed=0, window=WINDOW)
    params["c1_ceiling"] = 20.0
    assert len(corpus_generate("bump", params, seed=0, window=WINDOW)) == 1


@pytest.mark.parametrize("key", ["strength", "grain_width", "c1_ceiling"])
@pytest.mark.parametrize("value", [0, 0.0, -0.01, math.nan, math.inf, True,
                                   "0.001", None, [0.001],
                                   pytest.param(10**400, id="huge-int")])
def test_corpus_reals_must_be_finite_and_positive(key, value):
    # checked, not coerced: float() would take "0.001" and True, and 0
    # would build an all-zero field or divide by zero
    spec = [{"kind": "mollified-noise", "seed": 0,
             "params": {"count": 1, key: value}}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=f"{key} must be a finite "
                           "positive number"):
            generate_from_spec(spec, WINDOW)


@pytest.mark.parametrize("kind, params, unknown", [
    ("plane", {"gradients": [[0.01, 0.0, 0.0]], "offsets": [0.0],
               "c1_celing": 0.5}, "c1_celing"),
    ("bump", {"count": 1, "amplitude": [1e-4, 2e-4], "width": [0.1, 0.2],
              "bumps": 2}, "bumps"),
    ("multi-bump", {"count": 1, "amplitude": [1e-4, 2e-4],
                    "width": [0.1, 0.2], "grains": 2}, "grains"),
    ("mollified-noise", {"count": 1, "amplitude": [1e-4, 2e-4]},
     "amplitude")])
def test_corpus_rejects_a_parameter_its_kind_does_not_take(kind, params,
                                                           unknown):
    # a misspelled key must not fall back to the default silently
    with pytest.raises(ValueError, match=f"^unknown parameter '{unknown}'; "
                       f"{kind} takes"):
        corpus_generate(kind, params, seed=0, window=WINDOW)


HUGE = 10**400      # a JSON integer too large for a float


@pytest.mark.parametrize("amplitude", [[0.0, math.inf], [0.0, HUGE],
                                       [-1e308, 1e308], ["1e-4", 2e-4],
                                       [True, 2e-4], 1e-4, [math.nan, 2e-4]])
def test_corpus_ranges_are_two_finite_ordered_reals(amplitude):
    params = {"count": 1, "amplitude": amplitude, "width": [0.1, 0.2]}
    for kind in ("bump", "multi-bump"):
        with pytest.raises(ValueError, match="^amplitude must be a"):
            corpus_generate(kind, params, seed=0, window=WINDOW)


@pytest.mark.parametrize("key, value", [
    ("offsets", ["0.0082"]), ("offsets", [math.nan]), ("offsets", [HUGE]),
    ("offsets", [None]), ("offsets", 0.0082), ("gradients", [0.01]),
    ("gradients", [["0.001", "0", "0"]]), ("gradients", [[math.inf, 0, 0]]),
    ("gradients", [[False, 0.0, 0.0]])])
def test_plane_numbers_are_finite_reals(key, value):
    # a NaN offset once made a plane whose c1_bound was nan and whose
    # budget rows passed
    params = {"gradients": [[0.011, 0.0, 0.0]], "offsets": [0.0082],
              key: value}
    with pytest.raises(ValueError, match=f"^{key} must be a"):
        corpus_generate("plane", params, seed=0, window=WINDOW)


def test_corpus_rejects_unknown_kind():
    with pytest.raises(ValueError):
        corpus_generate("spline", {}, seed=0, window=WINDOW)


def test_noise_corpus_certified_exactly_at_strength():
    params = {"count": 3, "grains": 12, "grain_width": 0.12,
              "strength": 0.004, "c1_ceiling": 0.005}
    entries = corpus_generate("mollified-noise", params, seed=7, window=WINDOW)
    for e in entries:
        assert e.patch.c1_bound == pytest.approx(0.004, rel=1e-12)


def test_corpus_patches_declare_valid_c1_bounds(corpus_entries):
    rng = substream(8, "corpus-c1")
    pts = rng.uniform(0.3, 0.7, size=(256, 3))
    for e in corpus_entries:
        sup_val = float(np.abs(e.patch.g.values(pts)).max())
        sup_grad = float(np.linalg.norm(e.patch.g.gradients(pts),
                                        axis=1).max())
        assert max(sup_val, sup_grad) <= e.patch.c1_bound * (1 + 1e-9)
        assert e.patch.c1_bound <= 1.0 / 64.0 + 1e-12


def test_demo_corpus_composition(corpus_entries):
    kinds = {}
    for e in corpus_entries:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    assert len(corpus_entries) == 50
    assert kinds == {"plane": 16, "bump": 12, "multi-bump": 12,
                     "mollified-noise": 10}


def test_load_corpus_spec_validation(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ParseError):
        load_corpus_spec(bad_json)
    not_list = tmp_path / "obj.json"
    not_list.write_text('{"kind": "plane"}')
    with pytest.raises(ParseError):
        load_corpus_spec(not_list)
    missing = tmp_path / "missing.json"
    missing.write_text('[{"kind": "plane"}]')
    with pytest.raises(ParseError):
        load_corpus_spec(missing)


@pytest.mark.parametrize("seed", [1.7, True, -1, 2**64, "3", None])
def test_load_corpus_spec_rejects_a_seed_outside_64_bits(tmp_path, seed):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([
        {"kind": "bump", "seed": 0, "params": {}},
        {"kind": "bump", "seed": seed, "params": {}}]))
    with pytest.raises(ParseError, match="entry 1 seed must be an integer"):
        load_corpus_spec(path)


def test_load_corpus_spec_rejects_an_unknown_entry_key(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([
        {"kind": "bump", "seed": 0, "params": {}},
        {"kind": "bump", "seed": 0, "params": {}, "sed": 1}]))
    with pytest.raises(ParseError,
                       match=r"entry 1 has unknown keys \['sed'\]"):
        load_corpus_spec(path)


def test_load_corpus_spec_accepts_the_seed_range_ends(tmp_path):
    path = tmp_path / "corpus.json"
    spec = [{"kind": "bump", "seed": seed, "params": {}}
            for seed in (0, 2**64 - 1)]
    path.write_text(json.dumps(spec))
    assert load_corpus_spec(path) == spec


@pytest.mark.parametrize("count", [2.9, -1, 0, True, "2"])
def test_corpus_count_must_be_a_positive_integer(count):
    params = {"count": count, "amplitude": [1e-4, 3e-4], "width": [0.1, 0.2]}
    with pytest.raises(ValueError, match="count must be a positive integer"):
        corpus_generate("bump", params, seed=0, window=WINDOW)
    spec = [{"kind": "bump", "params": params, "seed": 0}]
    with pytest.raises(ParseError, match=r"corpus entry 0 \(bump\): count"):
        generate_from_spec(spec, WINDOW)
    params["count"] = np.int64(2)
    assert len(corpus_generate("bump", params, seed=0, window=WINDOW)) == 2
