import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import DEMO_CONFIG_PATH, FAMILY_TAMPERS, TAMPERED_LINE
from oracles import (greedy_by_pairs, per_record_serialize_family,
                     pointwise_sample_truncated_P)
from porous import (Ball, BuildConfig, ConstructionFailure, HoleFamily,
                    NeedsMoreSamples, ParseError, SamplingBudget, assemble_H,
                    assemble_Pk, build_family, build_stage, choose_level_radius,
                    deserialize_family, footprint_factor, pack_level,
                    plane_for_index, plane_schedule, sample_truncated_P,
                    serialize_family, substream, truncated_P,
                    unit_ball_volume)
from porous import construction
from porous.bounds import stop_target, strict_regime
from porous.construction import (GREEDY_BLOCK, HALF_MARGIN, StageSpace,
                                 _greedy_select, far_fraction)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_footprint_factor_zero_slope_closed_form():
    L = math.sqrt(10.0)
    assert footprint_factor(L, 0.0) == pytest.approx(math.sqrt(6.0))


def test_footprint_factor_decreases_with_slope():
    L = math.sqrt(10.0)
    slopes = [0.0, 1.0 / 64.0, 0.1, 0.5]
    factors = [footprint_factor(L, s) for s in slopes]
    assert all(a > b for a, b in zip(factors, factors[1:]))


def test_footprint_factor_solves_descent_quadratic():
    # u = factor * t must satisfy (1+s^2) u^2 + 4 s t u = (L^2-4) t^2
    L, s, t = math.sqrt(10.0), 0.3, 0.7
    u = footprint_factor(L, s) * t
    assert (1 + s**2) * u**2 + 4 * s * t * u == pytest.approx(
        (L**2 - 4) * t**2)


def test_footprint_factor_domain():
    with pytest.raises(ValueError):
        footprint_factor(2.0, 0.0)
    with pytest.raises(ValueError):
        footprint_factor(3.0, -0.1)


def test_plane_schedule_walks_diagonals():
    got = [plane_schedule(k) for k in range(1, 11)]
    assert got == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]
    # every index recurs forever
    first_20 = [plane_schedule(k) for k in range(1, 21)]
    for m in (1, 2, 3):
        assert first_20.count(m) >= 3
    with pytest.raises(ValueError):
        plane_schedule(0)


def test_plane_for_index_enumeration():
    flat = plane_for_index(1, 3, 1.0 / 64.0)
    assert np.all(flat.gradient == 0.0) and flat.offset == 0.0
    seen = set()
    # m=2 re-emits the flat plane (all-zero dyadic parts); past that the
    # enumeration is injective over the scanned prefix
    for m in range(2, 41):
        p = plane_for_index(m, 3, 1.0 / 64.0)
        assert p.slope < 1.0 / 64.0
        assert abs(p.offset) < 1.0 / 32.0
        seen.add((tuple(p.gradient), p.offset))
    assert len(seen) == 39
    with pytest.raises(ValueError):
        plane_for_index(0, 3, 1.0 / 64.0)


def test_build_config_defaults_and_validation():
    cfg = BuildConfig()
    assert cfg.window == Ball(np.full(3, 0.5), 0.25)
    assert footprint_factor(cfg.L, 0.0) == pytest.approx(math.sqrt(6.0))
    assert stop_target(cfg.n, cfg.s, cfg.stop_fractions[0]) \
        == pytest.approx(0.25 * cfg.window.volume())
    assert not strict_regime(cfg.E, cfg.epsilons, cfg.stop_fractions)
    for bad in (dict(n=2), dict(s=0.5), dict(r=0.5), dict(L=2.0),
                dict(E=1.0), dict(depth=0), dict(epsilons=(0.1,)),
                dict(stop_fractions=(0.25,)), dict(epsilons=(0.1, -0.1)),
                dict(stop_fractions=(0.25, 1.5))):
        with pytest.raises(ValueError):
            BuildConfig(**bad)


def test_strict_parameters_are_recognised_and_refused():
    cfg = BuildConfig(depth=1, epsilons=(0.002,), stop_fractions=(0.0625,),
                      E=1.0 / 0.002**3)
    assert strict_regime(cfg.E, cfg.epsilons, cfg.stop_fractions)
    with pytest.raises(ConstructionFailure) as err:
        build_family(cfg)
    assert "relaxed" in str(err.value)


# ---------------------------------------------------------------------------
# stage space
# ---------------------------------------------------------------------------

def _space(cfg):
    return StageSpace(window=cfg.window,
                      cover_factor=footprint_factor(cfg.L, 0.0), E=cfg.E)


def test_empty_space_boundary_distance_is_window_slack():
    cfg = BuildConfig()
    space = _space(cfg)
    pts = np.array([[0.5, 0.5, 0.5], [0.6, 0.5, 0.5]])
    assert space.boundary_distance(pts) == pytest.approx([0.25, 0.15])
    assert not space.covered(pts).any()


@pytest.mark.parametrize("given_level", [
    {"centers": np.array([[0.5, 0.5, 0.5]])}, {"radii": np.array([0.02])}])
def test_stage_space_takes_levels_only_through_add_level(given_level):
    # a passed centres array was dropped silently, and passed radii made
    # the coverage index raise a length mismatch
    cfg = BuildConfig()
    with pytest.raises(TypeError):
        StageSpace(window=cfg.window, cover_factor=2.4, E=cfg.E,
                   **given_level)
    space = _space(cfg)
    assert space.centers.shape == (0, 3) and space.radii.shape == (0,)


def test_boundary_distance_includes_enlarged_spheres():
    cfg = BuildConfig()
    space = _space(cfg)
    space.add_level(np.array([[0.5, 0.5, 0.5]]), 0.02)
    # sphere of the E-enlargement at radius 0.03 around the centre
    pts = np.array([[0.5, 0.5, 0.5], [0.54, 0.5, 0.5], [0.58, 0.5, 0.5]])
    d = space.boundary_distance(pts)
    assert d[0] == pytest.approx(0.03)
    assert d[1] == pytest.approx(0.01)
    assert d[2] == pytest.approx(0.05)


def _far_probes(rng, space, r_new, extra):
    """Random window points plus points on every annulus edge
    |p - c_i| = E t_i +- E r_new, at the centres, and on the window's edge
    and its E r_new offset."""
    dim, gap = space.window.dim, space.E * r_new
    w = space.window

    def directions(count):
        v = rng.standard_normal((count, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    probes = [w.center + rng.uniform(-w.radius, w.radius, size=(extra, dim)),
              space.centers]
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    for shell in (space.E * space.radii - gap, space.E * space.radii + gap):
        probes.append(space.centers + directions(len(space.radii))
                      * shell[:, None])
        probes.append((space.centers[:, None, :] + shell[:, None, None]
                       * axes[None]).reshape(-1, dim))
    for radius in (w.radius, w.radius - gap):
        probes.append(w.center + radius * axes)
        probes.append(w.center + radius * directions(extra))
    return np.vstack(probes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=3))
def test_far_fraction_matches_dense_distance(seed, dim, levels):
    # the index-backed far test against the dense distance, bit for bit,
    # including points on every edge it decides
    rng = substream(seed, "far-fraction")
    space = StageSpace(window=Ball(np.full(dim, 0.5), 0.25),
                       cover_factor=2.4, E=1.5)
    t = 0.25 / space.E
    for _ in range(levels):
        t *= rng.uniform(0.2, 0.7)
        space.add_level(rng.uniform(0.25, 0.75, size=(int(rng.integers(
            1, 40)), dim)), t)
    r_new = t * rng.uniform(0.05, 0.7)
    pts = _far_probes(rng, space, r_new, extra=200)
    dense = space.boundary_distance(pts) >= space.E * r_new
    got = far_fraction(space, pts, r_new)
    assert got.dtype == bool
    assert np.array_equal(got, dense)


def test_far_fraction_on_the_demo_stage_matches_dense_distance():
    # the first demo stage after two levels, probed where the packer
    # probes: uncovered points of the window
    cfg = BuildConfig()
    space = _space(cfg)
    rng = substream(3, "far-demo")
    for t, count in ((0.06, 30), (0.02, 300)):
        space.add_level(rng.uniform(0.3, 0.7, size=(count, 3)), t)
    pts = space.sample_uncovered(rng, 4000, 4096)
    pts = np.vstack([pts, _far_probes(rng, space, 0.005, extra=0)])
    for r_new in (0.001, 0.005, 0.02):
        assert np.array_equal(far_fraction(space, pts, r_new),
                              space.boundary_distance(pts) >= cfg.E * r_new)


def test_covered_uses_footprint_radius():
    cfg = BuildConfig()
    space = _space(cfg)
    t = 0.02
    space.add_level(np.array([[0.5, 0.5, 0.5]]), t)
    reach = space.cover_factor * t
    inside = np.array([[0.5 + 0.99 * reach, 0.5, 0.5]])
    outside = np.array([[0.5 + 1.01 * reach, 0.5, 0.5]])
    assert space.covered(inside)[0]
    assert not space.covered(outside)[0]


def test_sample_uncovered_respects_coverage():
    cfg = BuildConfig()
    space = _space(cfg)
    space.add_level(np.array([[0.5, 0.5, 0.5]]), 0.02)
    rng = substream(0, "uncovered")
    pts = space.sample_uncovered(rng, 500, 1024)
    assert len(pts) == 500
    assert not space.covered(pts).any()
    assert np.all(np.linalg.norm(pts - 0.5, axis=1) <= 0.25)


def test_covered_follows_each_added_level():
    cfg = BuildConfig()
    space = _space(cfg)
    rng = substream(1, "levels")
    pts = rng.uniform(0.25, 0.75, size=(2000, 3))
    for t, count in ((0.03, 20), (0.01, 200)):
        space.add_level(rng.uniform(0.25, 0.75, size=(count, 3)), t)
        reach = space.cover_factor * space.radii
        naive = (((pts[:, None, :] - space.centers[None]) ** 2).sum(axis=2)
                 < reach**2).any(axis=1)
        assert np.array_equal(space.covered(pts), naive)


def test_greedy_select_keeps_each_point_far_from_earlier_picks():
    rng = substream(2, "greedy")
    pool = rng.uniform(0.0, 1.0, size=(1500, 3))
    min_sep = 0.08
    chosen = []
    for p in pool:
        if all(((p - q) ** 2).sum() >= min_sep * min_sep for q in chosen):
            chosen.append(p)
    got = _greedy_select(pool, min_sep)
    assert np.array_equal(got, np.array(chosen))
    assert len(_greedy_select(pool[:0], min_sep)) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 2, 3, 4, 5, 8, 9]),
       st.sampled_from([0, 1, GREEDY_BLOCK - 1, GREEDY_BLOCK,
                        GREEDY_BLOCK + 1, 2 * GREEDY_BLOCK + 1]),
       st.sampled_from([0.05, 0.3, 1.0, 2.0, 8.0]),
       st.sampled_from(["uniform", "lattice", "shell"]), st.booleans())
def test_greedy_select_matches_the_pair_list_greedy(seed, dim, size,
                                                    density, layout,
                                                    duplicates):
    # block by block against the kept centres, bit for bit the greedy over
    # every close pair of the pool.  A dyadic lattice puts pairs exactly
    # min_sep apart; a shell layout puts pairs within a few ulps of it,
    # where dims 8 and 9 decide by sq_dists' pairwise sums
    rng = substream(seed, "greedy-oracle")
    spacing = max(size, 1) ** (-1.0 / dim)
    min_sep = density * spacing
    if layout == "lattice":
        min_sep = 2.0 ** round(math.log2(min_sep))
        side = max(2, round(2.0 / min_sep))
        pool = rng.integers(0, side, size=(size, dim)) * (min_sep / 2.0)
    else:
        pool = rng.uniform(0.0, 1.0, size=(size, dim))
    if layout == "shell":
        half = size // 2
        step = rng.normal(size=(size - half, dim))
        step *= min_sep / np.linalg.norm(step, axis=1)[:, None]
        pool[half:] = pool[:size - half] + step
    if duplicates and size > 1:
        pool[rng.integers(0, size, size // 4)] = \
            pool[rng.integers(0, size, size // 4)]
    got = _greedy_select(pool, min_sep)
    want = greedy_by_pairs(pool, min_sep)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_greedy_select_keeps_both_ends_of_an_exact_tie():
    # sq_dists == min_sep * min_sep is far enough, within a block and
    # across blocks
    min_sep = 0.25
    pool = np.zeros((GREEDY_BLOCK + 2, 3))
    pool[1] = (0.25, 0.0, 0.0)
    pool[2:GREEDY_BLOCK] = (0.125, 0.0, 0.0)   # duplicates, all too close
    pool[GREEDY_BLOCK] = (0.0, 0.25, 0.0)
    pool[GREEDY_BLOCK + 1] = (0.0, 0.0, 0.125)
    got = _greedy_select(pool, min_sep)
    assert np.array_equal(got, pool[[0, 1, GREEDY_BLOCK]])
    assert np.array_equal(got, greedy_by_pairs(pool, min_sep))


@pytest.mark.parametrize("seed", [0, 2])
def test_demo_build_bytes_match_the_pair_list_greedy(demo_config, seed,
                                                     monkeypatch):
    # the block greedy and the pair-list greedy, built in one process on
    # the same CPU, write the same family and log bytes
    cfg = dataclasses.replace(demo_config.build, seed=seed)

    def build_bytes():
        fam, log = build_family(cfg)
        return serialize_family(fam), json.dumps(
            log, separators=(",", ":"), default=float)

    got = build_bytes()
    monkeypatch.setattr(construction, "_greedy_select", greedy_by_pairs)
    assert build_bytes() == got


def test_sample_uncovered_exhausted_raises():
    cfg = BuildConfig()
    space = _space(cfg)
    space.add_level(np.array([[0.5, 0.5, 0.5]]), 0.25)  # footprint swallows all
    with pytest.raises(NeedsMoreSamples):
        space.sample_uncovered(substream(1, "x"), 10, 64)


def test_uncovered_measure_empty_is_exact_window_volume():
    cfg = BuildConfig()
    est = _space(cfg).uncovered_measure(cfg.budget, seed=0)
    assert est.method == "exact"
    assert est.value == pytest.approx(cfg.window.volume())


def _grid_uncovered(space, res=128):
    """Dense-grid replica of the query pipeline for the far condition."""
    w = space.window
    axis = w.center[0] - w.radius + (2 * w.radius / res) * (np.arange(res)
                                                            + 0.5)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts - w.center, axis=1) < w.radius]
    return pts[~space.covered(pts)]


def test_choose_level_radius_certifies_half_mass():
    cfg = BuildConfig()
    space = _space(cfg)
    r_new, frac = choose_level_radius(space, r_prev=0.25, seed=0,
                                      budget=cfg.budget)
    assert r_new <= 0.25 / cfg.E + 1e-12
    assert frac >= 0.5 + HALF_MARGIN
    # dense-grid distance transform as the oracle for the far fraction
    grid = _grid_uncovered(space)
    far = far_fraction(space, grid, r_new)
    assert float(far.mean()) >= 0.5
    # the next halving up must have been rejected for a reason: its exact
    # far fraction cannot clear the certification line
    coarse = far_fraction(space, grid, 2.0 * r_new)
    assert float(coarse.mean()) < 0.5 + HALF_MARGIN + 0.05


def test_choose_level_radius_with_existing_spheres():
    cfg = BuildConfig()
    space = _space(cfg)
    space.add_level(np.array([[0.45, 0.5, 0.5], [0.58, 0.47, 0.5]]), 0.015)
    r_new, frac = choose_level_radius(space, r_prev=0.02, seed=0,
                                      budget=cfg.budget)
    grid = _grid_uncovered(space)
    far = far_fraction(space, grid, r_new)
    assert float(far.mean()) >= 0.5


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def test_pack_level_separation_and_floor():
    cfg = BuildConfig()
    space = _space(cfg)
    r_new, _ = choose_level_radius(space, r_prev=0.25, seed=0,
                                   budget=cfg.budget)
    centers, pair_fraction, ball_fraction = pack_level(
        space, k=1, level=1, r_new=r_new, cfg=cfg)
    assert len(centers) >= 1
    if len(centers) > 1:
        d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 2.0 * cfg.E * r_new - 1e-12
    floor = (1.0 / (2.0 * cfg.E)) ** 3 / 2.0
    assert ball_fraction >= floor
    assert pair_fraction >= 0.5
    # independent grid estimate of the covered share of the uncovered set
    grid = _grid_uncovered(space)
    inside = np.zeros(len(grid), dtype=bool)
    for c in centers:
        inside |= np.linalg.norm(grid - c, axis=1) < r_new
    assert float(inside.mean()) >= floor * 0.9


def test_pack_level_centers_stay_far_from_boundary():
    cfg = BuildConfig()
    space = _space(cfg)
    r_new, _ = choose_level_radius(space, r_prev=0.25, seed=0,
                                   budget=cfg.budget)
    centers, _, _ = pack_level(space, k=1, level=1, r_new=r_new, cfg=cfg)
    assert np.all(space.boundary_distance(centers)
                  >= cfg.E * r_new - 1e-12)


# ---------------------------------------------------------------------------
# stages and the full build
# ---------------------------------------------------------------------------

def test_build_stage_reaches_target_within_decay_bound():
    cfg = BuildConfig()
    space, log = build_stage(1, cfg, r_prev=cfg.s)
    assert log["uncovered"] + log["uncovered_half_width"] \
        <= stop_target(cfg.n, cfg.s, cfg.stop_fractions[0])
    decay_bound = math.ceil(math.log(1.0 / cfg.stop_fractions[0])
                            / ((1.0 / (2.0 * cfg.E)) ** 3 / 2.0))
    assert len(log["levels"]) <= decay_bound
    radii = [lv["radius"] for lv in log["levels"]]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    # the space holds every level's centres at its radius
    counts = [lv["count"] for lv in log["levels"]]
    assert np.array_equal(space.radii, np.repeat(radii, counts))
    assert space.radii[-1] == radii[-1]


def _hand_family(base_centers, ts, ks=None, levels=None, epsilons=(0.0025,)):
    """A family placed through its records alone: stage, level, base
    centre and radius; ``ks`` and ``levels`` default to all 1."""
    base = np.asarray(base_centers, dtype=float)
    ts = np.asarray(ts, dtype=float)
    ones = np.ones(len(ts), dtype=np.int64)
    return HoleFamily(
        n=3, s=0.25, r=1.0 / 64.0, L=math.sqrt(10.0), E=1.5,
        epsilons=tuple(epsilons), seed=0, config_hash="",
        ks=ones if ks is None else np.asarray(ks, dtype=np.int64),
        levels=ones if levels is None else np.asarray(levels, dtype=np.int64),
        base_centers=base, ts=ts)


def test_lift_places_holes_above_plane():
    fam = _hand_family([[0.5, 0.5, 0.5]], [0.02])
    plane = plane_for_index(1, 3, 1.0 / 64.0)
    assert fam.lifted_centers.shape == (1, 4)
    assert fam.lifted_centers[0, 3] == pytest.approx(plane.heights(
        np.array([[0.5, 0.5, 0.5]]))[0] + 2 * 0.02)


def test_lift_matches_a_per_centre_loop():
    # stages 1 and 6 lie on planes 1 (zero) and 3 (gradient (1/256, 0, 0));
    # dyadic centres make every height exact
    rng = substream(5, "lift")
    rows = [(k, lvl, c, t) for k, lvl, t, count in (
        (1, 1, 0.02, 4), (1, 2, 0.01, 2), (6, 1, 0.004, 3))
        for c in np.round(rng.uniform(0.3, 0.7, (count, 3)) * 1024) / 1024]
    fam = _hand_family([r[2] for r in rows], [r[3] for r in rows],
                       ks=[r[0] for r in rows], levels=[r[1] for r in rows],
                       epsilons=(0.0025,) * 6)
    assert fam.plane(6).index == 3
    assert fam.plane(6).gradient.tolist() == [1 / 256, 0.0, 0.0]
    for i, (k, _, c, t) in enumerate(rows):
        slope = 1 / 256 if k == 6 else 0.0
        height = (c[0] - 0.5) * slope + 2.0 * t
        assert fam.lifted_centers[i].tolist() == [*c.tolist(), height]
    empty = _hand_family(np.zeros((0, 3)), [])
    assert empty.lifted_centers.shape == (0, 4)
    assert empty.stage_radii == ()


def test_demo_family_shape_and_lift(demo_family):
    fam = demo_family
    assert fam.depth == 2
    assert len(fam) > 0
    for k in (1, 2):
        ids = fam.stage_ids(k)
        assert len(ids) > 0
        plane = fam.plane(k)
        expect = plane.heights(fam.base_centers[ids]) + 2.0 * fam.ts[ids]
        assert np.array_equal(fam.lifted_centers[ids, 3], expect)
        assert np.array_equal(fam.lifted_centers[ids, :3],
                              fam.base_centers[ids])
        assert fam.stage_radii[k - 1] == float(fam.ts[ids].min())
    # stage radii strictly decrease
    assert fam.stage_radii[0] > fam.stage_radii[1]


def test_a_family_lists_an_epsilon_for_every_stage(demo_family):
    # the budget reads epsilons[k - 1] at stage k, so a family built in
    # process is refused as its file would be, not left to an IndexError
    with pytest.raises(ValueError,
                       match=r"^epsilons lists 1 value for 2 stages$"):
        dataclasses.replace(demo_family, epsilons=(0.0025,))
    with pytest.raises(ValueError, match="lists 2 values for 3 stages"):
        _hand_family([[0.5, 0.5, 0.5]] * 3, [0.02, 0.01, 0.005],
                     ks=[1, 2, 3], epsilons=(0.0025, 0.00125))
    assert _hand_family([[0.5, 0.5, 0.5]], [0.02]).epsilons == (0.0025,)


def test_primed_radii_and_window_slack_are_the_holes_columns(demo_family):
    fam = demo_family
    assert np.array_equal(fam.primed_radii, fam.E * fam.ts)
    for i in range(0, len(fam), 7):
        slack = fam.s - math.dist(fam.base_centers[i], [0.5] * fam.n) \
            - fam.E * fam.ts[i]
        assert fam.window_slack[i] == pytest.approx(slack, abs=1e-15)
    assert fam.window_slack.min() >= 0.0    # packing kept every ball inside


def test_demo_log_reports_levels(demo_log):
    stages = demo_log["stages"]
    assert [s["k"] for s in stages] == [1, 2]
    for s in stages:
        assert s["uncovered"] + s["uncovered_half_width"] <= s["threshold"]
        assert len(s["levels"]) >= 1
        # one entry per level, written once its uncovered mass is known
        for lv in s["levels"]:
            assert list(lv) == [
                "k", "level", "radius", "count", "far_fraction",
                "pair_cover_fraction", "ball_fraction", "uncovered_after",
                "uncovered_after_hw"]
            assert math.isfinite(lv["uncovered_after"])


# ---------------------------------------------------------------------------
# membership descriptors
# ---------------------------------------------------------------------------

def test_assemble_pk_filters_by_diameter(demo_family):
    fam = demo_family
    pk = assemble_Pk(fam, 2)
    expect = np.flatnonzero(2.0 * fam.ts < 0.5)
    assert np.array_equal(pk.cols, fam.lifted_centers[expect].T)
    assert np.array_equal(pk.radii, fam.L * fam.ts[expect])
    h = assemble_H(fam)
    assert np.array_equal(h.cols, fam.lifted_centers.T)
    assert np.array_equal(h.radii, fam.ts)


def _direct_truncated_P(fam, depth, probes):
    """Membership in every P_k, k <= depth, and in no raw hole, from the
    dense distance of every probe to every hole."""
    dist = np.linalg.norm(
        probes[:, None, :] - fam.lifted_centers[None, :, :], axis=2)
    direct = ~(dist < fam.ts).any(axis=1)
    for k in range(1, depth + 1):
        ids = np.flatnonzero(2.0 * fam.ts < 1.0 / k)
        direct &= (dist[:, ids] < fam.L * fam.ts[ids]).any(axis=1)
    return direct


def _membership_probes():
    rng = substream(3, "membership")
    return np.hstack([rng.uniform(0.25, 0.75, size=(10_000, 3)),
                      rng.uniform(-0.1, 0.4, size=(10_000, 1))])


def test_truncated_membership_matches_direct_definition(demo_family):
    probes = _membership_probes()
    assert np.array_equal(
        truncated_P(demo_family).contains(probes),
        _direct_truncated_P(demo_family, demo_family.depth, probes))


# truncation depth -> distinct P_k ball sets of the demo family, whose
# radii are 0.0208, 0.0139 and 0.0093: P_k drops a radius t at k >= 1/2t
@pytest.mark.parametrize("depth, distinct", [(1, 1), (2, 1), (17, 1),
                                             (30, 2), (60, 4)])
def test_truncated_membership_at_each_depth(demo_family, depth, distinct):
    tp = truncated_P(demo_family, depth)
    assert len(tp.pks) == distinct
    probes = _membership_probes()
    got = tp.contains(probes)
    assert np.array_equal(got, _direct_truncated_P(demo_family, depth,
                                                   probes))
    assert got.any() == (depth < 54)


def test_truncated_membership_where_P_k_shrinks():
    # hole 1 (t = 0.03) is in P_1 and not in P_17 (2t >= 1/17); hole 0
    # (t = 0.01) is in both
    fam = _hand_family([[0.45, 0.5, 0.5], [0.55, 0.5, 0.5]], [0.01, 0.03])
    rng = substream(4, "membership")
    probes = np.hstack([rng.uniform(0.3, 0.7, size=(4000, 3)),
                        rng.uniform(-0.1, 0.2, size=(4000, 1))])
    for depth in (1, 2, 17):
        tp = truncated_P(fam, depth)
        assert len(tp.pks) == 1 + (depth == 17)
        got = tp.contains(probes)
        assert np.array_equal(got, _direct_truncated_P(fam, depth, probes))
        assert got.any()


def test_truncated_P_depth_is_explicit(demo_family):
    assert truncated_P(demo_family).depth == demo_family.depth
    assert truncated_P(demo_family, 1).depth == 1
    assert len(truncated_P(demo_family, 1).pks) == 1
    # 0 is not "the full depth": a truncation keeps at least one stage
    for depth in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            truncated_P(demo_family, depth)


def test_sample_truncated_P_yields_members(demo_family):
    tp = truncated_P(demo_family)
    pts = sample_truncated_P(tp, 200, seed=5)
    assert pts.shape == (200, 4)
    assert tp.contains(pts).all()


def test_sample_truncated_P_matches_pointwise_loop(demo_family):
    # the porosity audit's points, with every bit (signs of zeros too)
    tp = truncated_P(demo_family)
    got = sample_truncated_P(tp, 1000, seed=0)
    assert got.tobytes() == pointwise_sample_truncated_P(tp, 1000,
                                                         seed=0).tobytes()


def _sampling_outcome(sample, tp, seed, max_tries):
    try:
        return sample(tp, 60, seed=seed, max_tries=max_tries).tobytes()
    except NeedsMoreSamples as err:
        return str(err)


@pytest.mark.parametrize("offset", [0.6, 0.0])
def test_sample_truncated_P_retries_like_pointwise_loop(offset):
    # hole 1 (t = 0.03) sits on hole 0's base or ``offset`` t beside it;
    # it is too wide for the depth-17 truncation (2t >= 1/17), and its raw
    # ball, lifted to height 0.06, cuts the top of hole 0's enlargement,
    # so one try never keeps enough of hole 0's draws
    t = 0.01
    fam = _hand_family([[0.5, 0.5, 0.5], [0.5 + offset * t, 0.5, 0.5]],
                       [t, 3.0 * t])
    tp = truncated_P(fam, depth=17)
    for seed in range(3):
        outcomes = [_sampling_outcome(sample_truncated_P, tp, seed, tries)
                    for tries in (1, 4)]
        assert outcomes == [
            _sampling_outcome(pointwise_sample_truncated_P, tp, seed, tries)
            for tries in (1, 4)]
        assert isinstance(outcomes[0], str)       # one try is never enough
        assert tp.contains(np.frombuffer(outcomes[1]).reshape(-1, 4)).all()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_family_round_trip_preserves_arrays(demo_family):
    text = serialize_family(demo_family)
    back = deserialize_family(text)
    assert np.array_equal(back.ks, np.sort(demo_family.ks))
    assert len(back) == len(demo_family)
    assert back.n == demo_family.n
    assert back.epsilons == demo_family.epsilons
    assert back.config_hash == demo_family.config_hash
    # records arrive sorted by (stage, level); content must match as sets
    orig = {(int(k), int(l), float(t), tuple(c)) for k, l, t, c in zip(
        demo_family.ks, demo_family.levels, demo_family.ts,
        demo_family.lifted_centers)}
    got = {(int(k), int(l), float(t), tuple(c)) for k, l, t, c in zip(
        back.ks, back.levels, back.ts, back.lifted_centers)}
    assert got == orig
    assert serialize_family(back) == text


@pytest.mark.parametrize("seed", [0, 2])
def test_serialize_family_matches_the_per_record_writer(demo_family,
                                                        demo_config, seed):
    family = demo_family if seed == 0 else build_family(
        dataclasses.replace(demo_config.build, seed=seed))[0]
    assert serialize_family(family) == per_record_serialize_family(family)


@pytest.mark.parametrize("special", [
    [-0.0, 5e-324, 1e300, 2.0, -3.0, 1.0, 0.0, -1e-310],
    [math.nan, math.inf, -math.inf, -0.0, 2.0, 5e-324, 1e300, math.nan]])
def test_serialize_family_writes_each_float_as_json_dumps(demo_family,
                                                          special):
    # the finite list takes every column's fast path; the second puts
    # non-finite values in the base centres and lifts only, so the radii
    # still take it
    count = len(special)
    base = demo_family.base_centers[:count].copy()
    base[:, 0], base[:, 2] = special, special[::-1]
    ts = demo_family.ts[:count].copy()
    ts[1::2] = [v if math.isfinite(v) else 2.0 for v in special[1::2]]
    family = dataclasses.replace(
        demo_family, ks=demo_family.ks[:count],
        levels=demo_family.levels[:count], base_centers=base, ts=ts)
    with np.errstate(invalid="ignore"):      # the lift of inf - inf
        text = serialize_family(family)
    assert text == per_record_serialize_family(family)
    assert ("NaN" in text) == (not all(map(math.isfinite, special)))


def test_round_trip_recovers_stage_radii(demo_family):
    back = deserialize_family(serialize_family(demo_family))
    assert back.stage_radii == demo_family.stage_radii
    assert back.depth == demo_family.depth
    # the records are already in (stage, level) order, so the derived
    # lifts line up bit for bit
    assert back.lifted_centers.tobytes() == \
        demo_family.lifted_centers.tobytes()


def test_family_round_trip_over_six_stages():
    # stages 1..6 lie on planes 1, 1, 2, 1, 2, 3; plane 3 has gradient
    # (1/256, 0, 0), and dyadic base centres make its heights exact
    ts = [0.04, 0.03, 0.02, 0.01, 0.008, 0.004]
    base = [[0.5 + k / 64.0, 0.5 - k / 128.0, 0.5] for k in range(1, 7)]
    base.append([0.375, 0.5, 0.625])
    fam = _hand_family(base, ts + [0.002], ks=[1, 2, 3, 4, 5, 6, 6],
                       levels=[1, 1, 1, 1, 1, 1, 2], epsilons=(0.001,) * 6)
    text = serialize_family(fam)
    assert [json.loads(line)["m"] for line in text.splitlines()[1:]] == \
        [1, 1, 2, 1, 2, 3, 3]
    back = deserialize_family(text)
    assert serialize_family(back) == text
    assert back.stage_radii == (0.04, 0.03, 0.02, 0.01, 0.008, 0.002)
    assert back.plane(6).gradient.tolist() == [1 / 256, 0.0, 0.0]
    for i in back.stage_ids(6):
        x, t = back.base_centers[i], back.ts[i]
        assert back.lifted_centers[i, 3] == (x[0] - 0.5) / 256 + 2.0 * t
    assert back.lifted_centers[5, 3] != 2.0 * back.ts[5]   # tilted


@pytest.mark.parametrize("tamper", sorted(FAMILY_TAMPERS))
def test_deserialize_rejects_a_tampered_record(tampered_families, tamper):
    with pytest.raises(ParseError, match=f"^line {TAMPERED_LINE}: "):
        deserialize_family(tampered_families[tamper])


@pytest.mark.parametrize("value, literal", [(0.0, "false"), (1.0, "true")])
def test_deserialize_rejects_a_bool_that_equals_its_coordinate(value,
                                                               literal):
    # numpy would read the bool as the very number the lift repeats, so
    # only its type is wrong
    text = serialize_family(_hand_family([[value, 0.5, 0.5]], [0.01]))
    record = json.loads(text.splitlines()[1])
    assert record["base_center"][0] == record["lifted_center"][0] == value
    edited = text.replace(f'_center":[{value!r},', f'_center":[{literal},')
    assert edited.count(literal) == 2
    with pytest.raises(ParseError, match="^line 2: malformed record: "
                       "ValueError\\('base_center must be a number, got "
                       f"{literal.title()}'\\)$"):
        deserialize_family(edited)


def test_deserialize_rejects_a_lift_off_by_one_ulp(demo_family):
    lines = serialize_family(demo_family).splitlines()
    rec = json.loads(lines[-1])
    rec["lifted_center"][-1] = float(np.nextafter(rec["lifted_center"][-1],
                                                  1.0))
    lines[-1] = json.dumps(rec, separators=(",", ":"))
    with pytest.raises(ParseError, match=f"^line {len(lines)}: lifted_center"):
        deserialize_family("\n".join(lines) + "\n")


def test_deserialize_rejects_malformed_input(demo_family):
    with pytest.raises(ParseError):
        deserialize_family("")
    with pytest.raises(ParseError):
        deserialize_family("{not json}\n")
    with pytest.raises(ParseError):
        deserialize_family('{"format_version":1}\n')      # missing header keys
    good = serialize_family(demo_family)
    header, rest = good.split("\n", 1)
    bumped = header.replace('"format_version":1', '"format_version":99')
    with pytest.raises(ParseError):
        deserialize_family(bumped + "\n" + rest)
    with pytest.raises(ParseError):
        deserialize_family(header + "\n" + '{"k":1}\n')
    with pytest.raises(ParseError):
        deserialize_family(header + "\n" + rest.split("\n", 1)[0]
                           .replace('"k":1', '"k":0') + "\n")


# one edit of the header line each; the loader must name line 1
HEADER_TAMPERS = [("n", "x"), ("n", 3.5), ("n", True), ("seed", "z"),
                  ("seed", -1), ("epsilons", ["a"]), ("epsilons", []),
                  ("epsilons", [math.inf]), ("s", math.nan),
                  ("r", math.inf), ("L", 0.0), ("E", -1.0),
                  ("E", 10**400), ("epsilons", [0.0025, 10**400]),
                  ("seed", 2**64), ("seed", 1.0), ("config_hash", 7)]


@pytest.mark.parametrize("key,value", HEADER_TAMPERS,
                         ids=[f"{k}={v!r}"[:24] for k, v in HEADER_TAMPERS])
def test_deserialize_rejects_a_malformed_header(demo_family, key, value):
    header, rest = serialize_family(demo_family).split("\n", 1)
    edited = json.loads(header)
    edited[key] = value
    with pytest.raises(ParseError, match=f"^line 1: {key} "):
        deserialize_family(json.dumps(edited) + "\n" + rest)


def test_deserialize_rejects_an_unknown_header_key(demo_family):
    header, rest = serialize_family(demo_family).split("\n", 1)
    edited = {**json.loads(header), "extra": 1}
    with pytest.raises(ParseError,
                       match=r"^line 1: header has unknown keys \['extra'\]"):
        deserialize_family(json.dumps(edited) + "\n" + rest)


def test_deserialize_rejects_an_unknown_record_key(tampered_families):
    with pytest.raises(ParseError, match=rf"^line {TAMPERED_LINE}: record "
                       r"has unknown keys \['extra'\]$"):
        deserialize_family(tampered_families["unknown-key"])


def test_deserialize_rejects_a_header_that_is_not_an_object(demo_family):
    rest = serialize_family(demo_family).split("\n", 1)[1]
    for header in ("[1]", "7", "null"):
        with pytest.raises(ParseError, match="^line 1: header is not"):
            deserialize_family(header + "\n" + rest)


def test_deserialize_names_each_line_that_is_not_one_json_value(demo_family):
    lines = serialize_family(demo_family).splitlines()
    first, second = lines[1], lines[2]
    # a record split at a comma: joined with commas, the lines would
    # still read as records, as many as there are lines
    cut = first.index(",")
    edits = {
        "split": [first[:cut], first[cut + 1:]],
        "two-on-one": [first + "," + second, first[:cut], first[cut + 1:]],
        "trailing": [first + " x"],
        "truncated": [first[:-1]],
    }
    for name, replacement in edits.items():
        text = "\n".join([lines[0], *replacement, *lines[3:]]) + "\n"
        try:
            json.loads(replacement[0])
        except json.JSONDecodeError as exc:
            want = f"line 2: invalid JSON: {exc}"
        with pytest.raises(ParseError) as err:
            deserialize_family(text)
        assert str(err.value) == want, name
    # JSON whitespace around a record is no error, as for json.loads
    padded = [lines[0], " \t" + first + "\r ", *lines[2:]]
    assert serialize_family(deserialize_family("\n".join(padded))) == \
        serialize_family(demo_family)


def test_deserialize_tolerates_blank_lines(demo_family):
    text = serialize_family(demo_family)
    padded = text.replace("\n", "\n\n", 3)
    assert len(deserialize_family(padded)) == len(demo_family)


def test_serialized_radius_fails_when_negative(demo_family):
    good = serialize_family(demo_family)
    lines = good.splitlines()
    rec = json.loads(lines[1])
    rec["t"] = -rec["t"]
    lines[1] = json.dumps(rec, separators=(",", ":"))
    with pytest.raises(ParseError):
        deserialize_family("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# small configs
# ---------------------------------------------------------------------------

def test_single_stage_build_is_self_consistent():
    cfg = BuildConfig(depth=1, epsilons=(0.0025,), stop_fractions=(0.25,),
                      seed=9)
    fam, log = build_family(cfg)
    assert fam.depth == 1
    assert len(fam) >= 1
    assert np.all(fam.ks == 1)
    text = serialize_family(fam)
    assert deserialize_family(text).stage_radii == fam.stage_radii


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_demo_build_memory_peak_is_bounded(demo_config):
    # no block of the build grows with points x balls
    tracemalloc.start()
    try:
        build_family(demo_config.build)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_ten_fold_pool_greedy_memory_is_bounded_by_the_kept_set(
        demo_config, monkeypatch):
    # at 10x the shipped pool (40,960 points a round) the greedy holds the
    # kept centres and one block's pairs, never the pool's pair list
    cfg = dataclasses.replace(demo_config.build, pool_size=40_960)
    peaks = []

    def traced(pool, min_sep):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _greedy_select(pool, min_sep)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(construction, "_greedy_select", traced)
    tracemalloc.start()
    try:
        fam, _ = build_family(cfg)
    finally:
        tracemalloc.stop()
    assert len(fam) > 0 and len(peaks) >= 3
    assert max(peaks) < 64 * 2**20


def _cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _capped_build(config: Path, *args: str) -> subprocess.CompletedProcess:
    """``porous build --config config *args`` in a child process whose
    address space is capped at 1 GiB; the cap applies to the child only."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p])}
    return subprocess.run(
        [sys.executable, "-m", "porous", "build", "--config", str(config),
         *args], env=env, preexec_fn=_cap_address_space,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("seed", [5, 8])
def test_large_demo_seeds_build_under_one_gib(seed, tmp_path):
    # demo seeds 5 and 8 pack over 6,600 holes
    done = _capped_build(DEMO_CONFIG_PATH, "--seed", str(seed),
                         "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "family.jsonl").read_text().count("\n") > 6000


def test_demo_config_at_n_12_ends_in_one_error_line(tmp_path):
    # a ball registers in at most 2 cells per gridded axis, not per axis,
    # so the index stays small and the build ends in the packer's
    # certified failure
    doc = json.loads(DEMO_CONFIG_PATH.read_text())
    doc["build"]["n"] = 12
    config = tmp_path / "n12.json"
    config.write_text(json.dumps(doc))
    done = _capped_build(config, "--out", str(tmp_path / "out"))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: construction failed: stage 1")
