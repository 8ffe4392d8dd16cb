import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from oracles import brute_contains_any, brute_members, brute_pairs
from parametric import SurfaceC1
from porous import (AffinePlane, Ball, BallIndex, MeasureEstimate,
                    PorosityWitness, pullback_porosity_witness, substream,
                    unit_ball_volume)
from porous import geometry
from porous.geometry import contains_any, run_starts, sq_dists


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_unit_ball_volume_closed_forms():
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_ball_volume_and_open_membership():
    b = Ball([0.0, 0.0, 0.0], 2.0)
    assert b.volume() == pytest.approx(unit_ball_volume(3) * 8.0)
    pts = np.array([[0, 0, 0], [1.999, 0, 0], [2.0, 0, 0], [2.1, 0, 0]],
                   dtype=float)
    index = BallIndex(b.center[None], [b.radius])
    assert index.contains_any(pts).tolist() == [True, True, False, False]


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0, 0.0], 0.0)


def test_ball_equality_and_hash():
    a = Ball([0.5, 0.5, 0.5], 0.25)
    b = Ball([0.5, 0.5, 0.5], 0.25)
    c = Ball([0.5, 0.5, 0.5], 0.5)
    assert a == b and hash(a) == hash(b)
    assert a != c


# ---------------------------------------------------------------------------
# planes and fields
# ---------------------------------------------------------------------------

def test_affine_plane_heights_and_embedding():
    plane = AffinePlane(index=1, gradient=np.array([0.5, 0.0, 0.0]),
                        offset=0.25, anchor=np.zeros(3))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert plane.heights(pts) == pytest.approx([0.25, 0.75])
    emb = SurfaceC1(plane=plane).value(pts)
    assert emb.shape == (2, 4)
    assert np.allclose(emb[:, :3], pts)
    assert emb[:, 3] == pytest.approx([0.25, 0.75])
    assert plane.slope == pytest.approx(0.5)


def test_affine_plane_index_validation():
    with pytest.raises(ValueError):
        AffinePlane(index=0, gradient=np.zeros(3), offset=0.0,
                    anchor=np.zeros(3))


def test_measure_estimate_interval_and_exactness():
    est = MeasureEstimate(1.0, 0.1, "monte_carlo", 100)
    assert est.lower() == pytest.approx(0.9)
    assert est.upper() == pytest.approx(1.1)
    exact = MeasureEstimate(1.0, 0.0, "exact", 0)
    assert exact.lower() == exact.upper() == 1.0
    with pytest.raises(ValueError):
        MeasureEstimate(1.0, 0.1, "exact", 0)


# ---------------------------------------------------------------------------
# union membership and measure
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_contains_any_matches_per_ball_or(seed):
    rng = substream(seed, "contains-any")
    centers = rng.uniform(-1.0, 1.0, size=(17, 3))
    radii = rng.uniform(0.05, 0.6, size=17)
    pts = rng.uniform(-1.5, 1.5, size=(89, 3))
    naive = np.zeros(len(pts), dtype=bool)
    for c, r in zip(centers, radii):
        naive |= ((pts - c) ** 2).sum(axis=1) < r * r
    assert np.array_equal(contains_any(pts, centers, radii), naive)


def test_contains_any_blocking_invariance(monkeypatch):
    rng = substream(1, "blocking")
    centers = rng.uniform(0.0, 1.0, size=(5, 3))
    radii = rng.uniform(0.1, 0.3, size=5)
    pts = rng.uniform(0.0, 1.0, size=(1000, 3))
    full = contains_any(pts, centers, radii)
    pairs = BallIndex(centers, radii).pairs()
    monkeypatch.setattr(geometry, "INDEX_BLOCK", 7)
    assert np.array_equal(contains_any(pts, centers, radii), full)
    small = BallIndex(centers, radii).pairs()
    assert all(np.array_equal(a, b) for a, b in zip(small, pairs))


def test_index_blocks_bound_a_cell_holding_every_ball(monkeypatch):
    # one huge ball makes a single cell hold all the small ones, so a
    # query's candidates outnumber the block many times over
    rng = substream(2, "one-cell")
    centers = np.vstack([rng.uniform(0.0, 0.1, size=(300, 3)), [[0, 0, 0]]])
    radii = np.append(rng.uniform(0.001, 0.01, size=300), 5.0)
    pts = rng.uniform(-0.2, 0.3, size=(200, 3))
    index = BallIndex(centers, radii)
    seen = []
    real = index._slots

    def spy(*args):
        for q, j in real(*args):
            seen.append(len(q))
            yield q, j
    monkeypatch.setattr(geometry, "INDEX_BLOCK", 64)
    monkeypatch.setattr(index, "_slots", spy)
    assert np.array_equal(index.contains_any(pts),
                          brute_contains_any(pts, centers, radii))
    _assert_members(index, pts, centers, radii)
    _assert_pairs(index, centers, radii)
    assert max(seen) <= 64 and sum(seen) > 100 * 64


# ---------------------------------------------------------------------------
# spatial index
# ---------------------------------------------------------------------------

def _random_family(seed, count, spread=10.0):
    rng = substream(seed, "family")
    centers = rng.uniform(-spread, spread, size=(count, 3))
    # radii spanning several octaves exercises the per-octave grids
    radii = np.exp(rng.uniform(math.log(0.01), math.log(2.0), size=count))
    return centers, radii


def _assert_pairs(index, centers, radii):
    got, want = index.pairs(), brute_pairs(centers, radii)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _assert_members(index, probes, centers, radii):
    got, want = index.members(probes), brute_members(probes, centers, radii)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_ball_index_matches_linear_scan_on_probes():
    centers, radii = _random_family(3, 400)
    index = BallIndex(centers, radii)
    rng = substream(4, "probes")
    probes = rng.uniform(-11.0, 11.0, size=(10_000, 3))
    assert np.array_equal(index.contains_any(probes),
                          brute_contains_any(probes, centers, radii))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.01, max_value=2.0))
def test_ball_index_matches_brute_force(seed, count, dim, spread):
    rng = substream(seed, "index-hypothesis")
    centers = rng.uniform(-spread, spread, size=(count, dim))
    radii = np.exp(rng.uniform(math.log(0.01), math.log(2.0), size=count))
    probes = rng.uniform(-spread - 2.0, spread + 2.0, size=(300, dim))
    index = BallIndex(centers, radii)
    assert np.array_equal(index.contains_any(probes),
                          brute_contains_any(probes, centers, radii))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=geometry.INDEX_AXES + 1, max_value=13),
       st.floats(min_value=0.01, max_value=2.0))
def test_ball_index_past_the_gridded_axes_matches_brute_force(
        seed, count, dim, spread):
    # the axes past INDEX_AXES only add candidates; each ball stays in at
    # most 2 cells per gridded axis
    rng = substream(seed, "index-many-axes")
    centers = rng.uniform(-spread, spread, size=(count, dim))
    radii = np.exp(rng.uniform(math.log(0.01), math.log(2.0), size=count))
    probes = np.vstack([centers + rng.uniform(-0.5, 0.5, size=(count, dim))
                        * radii[:, None],
                        rng.uniform(-spread - 2.0, spread + 2.0,
                                    size=(300, dim))])
    index = BallIndex(centers, radii)
    assert len(index._ball) <= 2**geometry.INDEX_AXES * count
    assert np.array_equal(index.contains_any(probes),
                          brute_contains_any(probes, centers, radii))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=9))
# a radius whose scalar r**2 (libm's pow) is one ulp above r * r
@example(seed=785, count=1, dim=1)
def test_ball_index_members_on_boundaries_and_tangencies(seed, count, dim):
    # a chain of tangent balls along one axis, probed at every tangency,
    # on each ball's boundary along every axis, and at its centre
    rng = substream(seed, "index-boundaries")
    radii = rng.uniform(0.01, 2.0, size=count)
    centers = np.zeros((count, dim))
    centers[:, 0] = np.cumsum(2.0 * radii) - radii
    centers[:, 1:] = rng.uniform(-1.0, 1.0, size=dim - 1)
    touch = centers + radii[:, None] * np.eye(dim)[0]
    axes = (centers[:, None, :] + radii[:, None, None]
            * np.vstack([np.eye(dim), -np.eye(dim)])[None]).reshape(-1, dim)
    probes = np.vstack([touch, axes, centers, np.zeros((1, dim))])
    index = BallIndex(centers, radii)
    assert np.array_equal(index.contains_any(probes),
                          brute_contains_any(probes, centers, radii))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


def test_ball_index_boundary_points_are_outside():
    centers = np.array([[0.0, 0.0, 0.0]])
    radii = np.array([1.0])
    index = BallIndex(centers, radii)
    assert index.contains_any(np.array([[1.0, 0.0, 0.0], [0.999, 0.0, 0.0],
                                        [0.0, -1.0, 0.0]])).tolist() \
        == [False, True, False]
    # tangent balls are reported as a candidate pair, not as members
    touching = BallIndex(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                         np.array([1.0, 1.0]))
    assert [a.tolist() for a in touching.pairs()] == [[0], [1], [4.0]]
    assert not touching.contains_any(np.array([[1.0, 0.0, 0.0]]))[0]
    assert [a.tolist() for a in touching.members(
        np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.5, 0.0, 0.0]]))] \
        == [[1, 2], [0, 1], [0.25, 0.25]]


def test_ball_index_with_every_cell_hash_colliding(monkeypatch):
    # one hash for every cell: each ball is registered once, every query
    # meets every ball, and the exact tests must still sort it out
    monkeypatch.setattr(geometry, "_CELL_HASH", np.zeros(64, dtype=np.int64))
    centers, radii = _random_family(6, 80, spread=1.0)
    probes = substream(7, "collide").uniform(-1.5, 1.5, size=(500, 3))
    index = BallIndex(centers, radii)
    # each packed key is then the ball alone, in its 7 low bits
    assert index._bits == 7
    assert not index._keys.any()
    assert np.array_equal(index._ball, np.arange(80))
    assert np.array_equal(index.contains_any(probes),
                          brute_contains_any(probes, centers, radii))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


@pytest.mark.parametrize("count", [2**k + d for k in (1, 4, 7, 10)
                                   for d in (-1, 0, 1)])
def test_ball_index_where_the_packed_width_changes(count):
    # a packed key gives the ball len(radii).bit_length() bits, one more
    # from each power of two on
    rng = substream(count, "packed-width")
    centers = rng.uniform(-1.0, 1.0, size=(count, 3))
    radii = np.exp(rng.uniform(math.log(0.02), math.log(0.5), size=count))
    probes = rng.uniform(-1.5, 1.5, size=(2000, 3))
    index = BallIndex(centers, radii)
    assert index._bits == count.bit_length()
    assert np.array_equal(np.unique(index._ball), np.arange(count))
    q, j, _ = index.members(probes)
    assert np.array_equal(np.lexsort((j, q)), np.arange(len(q)))
    _assert_members(index, probes, centers, radii)
    _assert_pairs(index, centers, radii)


def test_ball_index_empty_family():
    index = BallIndex(np.zeros((0, 3)), np.zeros(0))
    assert not index.contains_any(np.zeros((4, 3))).any()
    assert not contains_any(np.zeros((4, 3)), np.zeros((0, 3)), np.zeros(0)).any()
    assert all(len(a) == 0 for a in index.pairs())
    assert all(len(a) == 0 for a in index.members(np.zeros((4, 3))))


def test_ball_index_extreme_extents():
    # radii of 1e-9 make cells of about PAIR_SLACK: 1e6 per axis here, and
    # 8e11 per axis of the 4-D case below, far past a dense int64 cell number
    rng = substream(5, "tiny-balls")
    centers = rng.uniform(0.0, 1.0, size=(500, 3))
    radii = np.full(500, 1e-9)
    probes = np.vstack([centers + rng.uniform(-8e-10, 8e-10, size=(500, 3)),
                        rng.uniform(0.0, 1.0, size=(500, 3))])
    index = BallIndex(centers, radii)
    hits = index.contains_any(probes)
    assert hits[:500].sum() > 0
    assert np.array_equal(hits, brute_contains_any(probes, centers, radii))
    _assert_pairs(index, centers, radii)
    # lifted 4-D centres: tiny holes beside a far-away one
    lifted = np.vstack([rng.uniform(0.25, 0.75, size=(300, 4)),
                        [[1e6, -1e6, 1e6, -1e6]]])
    radii4 = np.append(np.full(300, 1e-7), 1e-7)
    probes4 = np.vstack([lifted + rng.uniform(-6e-8, 6e-8, size=(301, 4)),
                         rng.uniform(0.25, 0.75, size=(300, 4))])
    index4 = BallIndex(lifted, radii4)
    assert np.array_equal(index4.contains_any(probes4),
                          brute_contains_any(probes4, lifted, radii4))
    _assert_members(index4, probes4, lifted, radii4)
    _assert_pairs(index4, lifted, radii4)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan])
def test_ball_index_rejects_a_radius_that_is_not_positive(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no cast of a NaN cell
        with pytest.raises(ValueError, match="radii must be positive"):
            BallIndex(np.zeros((2, 3)), np.array([0.1, bad]))


def _sphere_offsets(dim, radius):
    """Dyadic offsets of length exactly radius: +-radius along each axis,
    and +-radius/2 on each run of four consecutive axes."""
    out = [sign * radius * e for e in np.eye(dim) for sign in (1.0, -1.0)]
    for lo in range(dim - 3):
        v = np.zeros(dim)
        v[lo:lo + 4] = radius / 2.0 * np.array([1.0, -1.0, -1.0, 1.0])
        out += [v, -v]
    return np.array(out)


@pytest.mark.parametrize("dim", range(1, 10))
def test_sq_dists_is_the_row_sum_bit_for_bit(dim):
    rng = substream(dim, "sq-dists")
    a = rng.uniform(-1.0, 1.0, size=(40, dim)) \
        * 10.0 ** rng.integers(-8, 9, size=(40, dim))
    b = rng.uniform(-1.0, 1.0, size=(30, dim))
    # dyadic centres, each with points exactly on its sphere of radius 3/4
    centers = rng.integers(-64, 65, size=(3, dim)) / 8.0
    offsets = _sphere_offsets(dim, 0.75)
    sphere = (centers[:, None, :] + offsets[None]).reshape(-1, dim)
    on = np.arange(len(sphere))
    around = np.repeat(np.arange(3), len(offsets))
    none = np.zeros(0, dtype=np.int64)
    cases = [(a, rng.integers(0, 40, size=5000),
              b, rng.integers(0, 30, size=5000)),
             (sphere, on, centers, around),
             (a, none, b, none),
             (a, np.full(7, 3), b, np.full(7, 5))]     # one pair repeated
    for p, i, c, j in cases:
        want = ((p[i] - c[j]) ** 2).sum(axis=1)
        for layout in (np.transpose, lambda x: np.ascontiguousarray(x.T)):
            got = sq_dists(layout(p), i, layout(c), j)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (sq_dists(sphere.T, on, centers.T, around) == 0.75**2).all()


@pytest.mark.parametrize("dim", range(1, 14))
def test_ball_index_answers_with_sq_dists_bit_for_bit(dim):
    # from 8 axes on, sq_dists sums in numpy's reduction order
    rng = substream(dim, "index-sq-dists")
    centers = rng.uniform(0.0, 1.0, size=(24, dim)) \
        * 10.0 ** rng.integers(-3, 1, size=(24, dim))
    radii = rng.uniform(0.2, 0.6, size=24)
    probes = centers[rng.integers(0, 24, size=300)] \
        + rng.uniform(-0.2, 0.2, size=(300, dim))
    index = BallIndex(centers, radii)
    q, j, sq = index.members(probes)
    first, second, pair_sq = index.pairs()
    assert len(q) > 0 and len(first) > 0
    for got, want in ((sq, sq_dists(probes.T, q, centers.T, j)),
                      (pair_sq, sq_dists(centers.T, first, centers.T,
                                         second))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


EDGE_KEYS = st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, 0,
                             -2**62 - 1, -2**62, -2**62 + 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), EDGE_KEYS),
                max_size=40))
@example([])
@example([7])
@example([-2**62] * 6)
@example([2**62] * 3 + [2**62 + 1])
def test_run_starts_is_the_first_index_of_unique(keys):
    x = np.sort(np.array(keys, dtype=np.int64))
    start = run_starts(x)
    values, first, counts = np.unique(x, return_index=True,
                                      return_counts=True)
    assert np.array_equal(start, first)
    assert np.array_equal(x[start], values)
    assert np.array_equal(np.diff(start, append=len(x)), counts)


# ---------------------------------------------------------------------------
# porosity witnesses
# ---------------------------------------------------------------------------

def test_witness_requires_unit_direction_and_positive_radius():
    with pytest.raises(ValueError):
        PorosityWitness(direction=np.array([1.0, 1.0, 0.0, 0.0]), step=1.0,
                        radius=0.5)
    with pytest.raises(ValueError):
        PorosityWitness(direction=np.array([1.0, 0.0, 0.0, 0.0]), step=1.0,
                        radius=0.0)


def test_witness_hole_center():
    w = PorosityWitness(direction=np.array([0.0, 1.0, 0.0, 0.0]), step=2.0,
                        radius=0.5)
    assert w.hole_center(np.zeros(4)) == pytest.approx([0.0, 2.0, 0.0, 0.0])


def test_pullback_witness_maps_hole_into_hole():
    # a surjection of R^6 onto R^4; probes of the pulled-back hole must
    # land in the original hole under the forward map
    rng = substream(9, "pullback")
    mat = rng.normal(size=(4, 6))
    direction = np.array([1.0, 0.0, 0.0, 0.0])
    wit = PorosityWitness(direction=direction, step=1.0, radius=0.25)
    back = pullback_porosity_witness(mat, wit)
    assert math.isclose(np.linalg.norm(back.direction), 1.0, abs_tol=1e-9)

    base = rng.normal(size=6)
    target = mat @ base + wit.step * wit.direction   # original hole centre
    pulled_center = back.hole_center(base)
    probes = pulled_center + back.radius * 0.999 * _unit_vectors(rng, 1000, 6)
    images = probes @ mat.T
    dist = np.linalg.norm(images - target, axis=1)
    assert np.all(dist < wit.radius + 1e-9)


def _unit_vectors(rng, count, dim):
    v = rng.normal(size=(count, dim))
    return v * (rng.uniform(0.0, 1.0, count) ** (1.0 / dim)
                / np.linalg.norm(v, axis=1))[:, None]


def test_pullback_rejects_rank_deficient_and_square():
    wit = PorosityWitness(direction=np.array([1.0, 0.0, 0.0, 0.0]), step=1.0,
                          radius=0.25)
    with pytest.raises(ValueError):
        pullback_porosity_witness(np.eye(4), wit)
    # the zero map fails the rank check, so its norm is never divided by
    with pytest.raises(ValueError, match="not surjective"):
        pullback_porosity_witness(np.zeros((4, 6)), wit)
    degenerate = np.zeros((4, 6))
    degenerate[0, 0] = 1.0
    with pytest.raises(ValueError):
        pullback_porosity_witness(degenerate, wit)
