import dataclasses
import json
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from porous import (AuditFailure, AuditReport, AuditRow, AuditSettings,
                    Ball, GraphPatch,
                    HoleFamily, NeedsMoreSamples, PreconditionError,
                    SamplingBudget,
                    ScalarField, alpha_relaxed, analysis_suite,
                    blend_disjoint, budget, bump_field, classify_holes, coverage_deficit,
                    disjointness_audit, family_invariant_audit,
                    hole_intersection_mass, ledger_rows,
                    make_cutoff, mollify, porosity_row, porosity_witness,
                    sample_truncated_P, strict_deficit_bound, truncated_P,
                    unit_ball_volume)
from porous.sampling import sample_shell, substream
from porous import bounds, verification
from porous.bounds import (DBOUND_C, LEDGER_C, RESIDUE_GRAD_CAP, K_constant,
                           ball_floor)
from porous.surfaces import corpus_generate, unit_lattice
from porous.verification import (CSV_HEADER, GEOMETRY_TOL,
                                 HIT_LATTICE, HIT_MARGIN, REFINE_ITERS,
                                 SECTIONS,
                                 _ball_probes, graph_hit_scan,
                                 porosity_witnesses, residue_energies,
                                 residue_energy, smooth_over_subfamily)

from oracles import (affine_hits, full_hit_scan, per_hole_classify_holes,
                     residue_region, sampled_shared_probes)

W3 = unit_ball_volume(3)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_stage_constants_shrink_to_one():
    assert K_constant(1) == pytest.approx(1.5)
    assert K_constant(2) == pytest.approx(1.25)
    assert K_constant(3) == pytest.approx(1.125)
    assert K_constant(30) > 1.0
    with pytest.raises(ValueError):
        K_constant(0)


def test_alpha_relaxed_halves_at_quarter_stop():
    assert alpha_relaxed(3, 0.25, 0.25) == pytest.approx(W3 * 0.25**3 / 2.0)


def test_strict_deficit_bound_arithmetic_instance():
    assert strict_deficit_bound(3, 0.25, 1) == pytest.approx(
        W3 * 0.25**3 / 8.0)
    assert strict_deficit_bound(3, 0.25, 1) == pytest.approx(8.181e-3,
                                                             rel=1e-3)
    assert strict_deficit_bound(3, 0.25, 2) == pytest.approx(
        strict_deficit_bound(3, 0.25, 1) / 2.0)


# ---------------------------------------------------------------------------
# synthetic single-stage families
# ---------------------------------------------------------------------------

def _manual_family(base_centers, ts, levels=None, epsilons=(0.0025,),
                   E=1.5):
    """One stage on the zero plane, so each hole is lifted to height 2t."""
    base = np.asarray(base_centers, dtype=float)
    ts = np.asarray(ts, dtype=float)
    count = len(ts)
    levels = np.ones(count, dtype=np.int64) if levels is None \
        else np.asarray(levels, dtype=np.int64)
    return HoleFamily(
        n=3, s=0.25, r=1.0 / 64.0, L=math.sqrt(10.0), E=E,
        epsilons=tuple(epsilons), seed=0, config_hash="",
        ks=np.ones(count, dtype=np.int64), levels=levels,
        base_centers=base, ts=ts)


def _field_patch(field, label, c1):
    return GraphPatch(g=field, source=label, c1_bound=c1)


def _flat_patch(c1=0.0):
    window = Ball(np.full(3, 0.5), 0.25)
    g = ScalarField(
        domain=window, fn=lambda pts: np.zeros(len(np.atleast_2d(pts))),
        grad_fn=lambda pts: np.zeros_like(np.atleast_2d(pts)),
        grad_bound=0.0, label="flat")
    return _field_patch(g, "flat", c1)


def _bump_patch(center, t, height_factor, width_factor, c1=None):
    """Bump dipping toward the hole at ``center`` of radius t."""
    window = Ball(np.full(3, 0.5), 0.25)
    bump = bump_field(np.asarray(center), width_factor * t,
                      height_factor * t)

    def fn(pts):
        return bump.values(pts)

    g = ScalarField(domain=window, fn=fn, grad_fn=bump.gradients,
                    grad_bound=bump.grad_bound, label="dip")
    return _field_patch(g, "dip", bump.grad_bound if c1 is None else c1)


def _tilt_patch(offset, slope=0.02):
    """Gentle affine field g = offset + slope * (x0 - 1/2)."""
    window = Ball(np.full(3, 0.5), 0.25)
    grad = np.array([slope, 0.0, 0.0])

    def fn(pts):
        return offset + (np.atleast_2d(pts)[:, 0] - 0.5) * slope

    def grad_fn(pts):
        return np.broadcast_to(grad, np.atleast_2d(pts).shape).copy()

    g = ScalarField(domain=window, fn=fn, grad_fn=grad_fn,
                    grad_bound=slope, label="tilt")
    return _field_patch(g, "tilt", slope)


# ---------------------------------------------------------------------------
# hit scanning
# ---------------------------------------------------------------------------

def test_hit_scan_vertical_gap_decides():
    t = 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.6, 0.5, 0.5]], [t, t])
    flat = _flat_patch()
    scan = graph_hit_scan(flat.g, fam, np.array([0, 1]), K=1.5)
    # flat graph stays 2t below every lifted centre: 2t > 1.5t, all missed
    assert not scan.hit.any()
    assert np.all(scan.min_gap >= -1e-6)

    dip = _bump_patch([0.5, 0.5, 0.5], t, height_factor=0.6, width_factor=1.0)
    scan2 = graph_hit_scan(dip.g, fam, np.array([0, 1]), K=1.5)
    assert scan2.hit.tolist() == [True, False]
    assert scan2.hit_ids.tolist() == [0]


def test_hit_scan_prefilter_never_changes_verdicts(demo_family, plane_entries):
    fam = demo_family
    patch = plane_entries[0].patch
    ids = fam.stage_ids(1)
    fast = graph_hit_scan(patch.g, fam, ids, K=1.5)
    slow = full_hit_scan(patch.g, fam, ids, K=1.5, prefilter=False)
    assert np.array_equal(fast.hit, slow.hit)
    assert fast.prefiltered.any()          # the shortcut did real work
    assert not slow.prefiltered.any()


def test_hit_scan_shrinking_constant_is_monotone(demo_family, plane_entries):
    fam = demo_family
    patch = plane_entries[-1].patch
    ids = fam.stage_ids(1)
    wide = graph_hit_scan(patch.g, fam, ids, K=1.5)
    narrow = graph_hit_scan(patch.g, fam, ids, K=1.25)
    assert np.all(wide.hit | ~narrow.hit)   # narrow hits are wide hits


def test_hit_scan_matches_the_closed_form_on_every_demo_plane(
        demo_family, corpus_spec, plane_entries):
    # the lattice and descent against the exact distance to each plane:
    # stage 1 at K = 3/2 and stage 2 at K = 5/4, as the budget scans them,
    # and every hole at K = 1
    fam = demo_family
    group = next(g for g in corpus_spec if g["kind"] == "plane")["params"]
    planes = [(off, grad) for off in group["offsets"]
              for grad in group["gradients"]]
    assert [e.patch.source for e in plane_entries] \
        == [f"plane[{i}]" for i in range(len(planes))] and len(planes) == 16
    queries = [(fam.stage_ids(1), 1.5), (fam.stage_ids(2), 1.25),
               (np.arange(len(fam)), 1.0)]
    hits = total = 0
    for entry, (offset, gradient) in zip(plane_entries, planes):
        for ids, K in queries:
            exact, slack = affine_hits(gradient, offset, fam.window.center,
                                       fam, ids, K)
            assert not (np.abs(slack) < 1e-12).any()   # none too close
            scan = graph_hit_scan(entry.patch.g, fam, ids, K)
            assert np.array_equal(scan.hit, exact), (entry.patch.source, K)
            hits += int(exact.sum())
            total += len(ids)
    assert total == 16 * 2 * len(fam) and hits > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=1e-3, max_value=1.0 / 64.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from([1.0, 1.25, 1.5]),
       st.sampled_from([-1.0, 1.0]))
def test_hit_scan_matches_the_closed_form_in_the_scanned_band(
        demo_family, seed, slope, place, K, side):
    # an in-class plane whose centre gap v0 lies in (Kt + margin,
    # (Kt + margin) sqrt(1 + rho^2)]: neither the prefilter nor the centre
    # witness decides the hole, so the lattice and descent must
    fam = demo_family
    rng = substream(seed, "scanned-band")
    hole = int(rng.integers(len(fam)))
    direction = rng.standard_normal(fam.n)
    gradient = slope * direction / np.linalg.norm(direction)
    reach = K * fam.ts[hole] + HIT_MARGIN
    rho = float(np.linalg.norm(gradient))
    v0 = reach * (1.0 + place * (math.sqrt(1.0 + rho * rho) - 1.0))
    anchor = fam.window.center
    x = fam.base_centers[hole]
    h = fam.lifted_centers[hole, fam.n]
    offset = float(h + side * v0 - (x - anchor) @ gradient)
    # the slope is in the class; the offset, near the hole's height, may
    # take the plane's sup past the class's ceiling, which the scan ignores
    entry, = corpus_generate("plane", {"gradients": [gradient.tolist()],
                                       "offsets": [offset], "c1_ceiling": 1.0},
                             0, fam.window)
    g = entry.patch.g
    # the scan's own prefilter and centre tests leave the hole open
    gap = abs(float(g.values(x[None])[0]) - h)
    assume(gap / math.sqrt(1.0 + g.grad_bound**2) - K * fam.ts[hole]
           <= HIT_MARGIN < gap - K * fam.ts[hole])
    exact, slack = affine_hits(gradient, offset, anchor, fam, [hole], K)
    assume(abs(slack[0]) >= 1e-12)
    scan = graph_hit_scan(g, fam, np.array([hole]), K)
    assert not scan.prefiltered[0]
    assert scan.hit[0] == exact[0]


def test_hit_scan_finds_the_misses_of_the_scanned_band(demo_family):
    # a stage-2 scan declares the stage's gradient cap, above the plane's
    # slope, so its prefilter leaves centre gaps v0 open up to (Kt +
    # margin) sqrt(1 + cap^2), past the closed form's edge (Kt + margin)
    # sqrt(1 + slope^2): below that edge the lattice and descent must find
    # a hit, above it they must report a miss
    fam = demo_family
    cap = RESIDUE_GRAD_CAP - 3.0 * fam.epsilons[0]
    anchor = fam.window.center
    verdicts = []
    for i in range(120):
        rng = substream(i, "scanned-band-misses")
        hole = int(rng.integers(len(fam)))
        direction = rng.standard_normal(fam.n)
        gradient = rng.uniform(1e-3, 1.0 / 64.0) * direction \
            / np.linalg.norm(direction)
        K = float(rng.choice([1.0, 1.25, 1.5]))
        t = fam.ts[hole]
        lo, edge, hi = ((K * t + HIT_MARGIN) * math.sqrt(1.0 + rho * rho)
                        for rho in (0.0, float(np.linalg.norm(gradient)),
                                    cap))
        # even draws below the edge, odd ones above it
        v0 = edge + rng.uniform(0.01, 0.99) * ((hi - edge) if i % 2
                                               else (lo - edge))
        side = float(rng.choice([-1.0, 1.0]))
        x = fam.base_centers[hole]
        h = fam.lifted_centers[hole, fam.n]
        offset = float(h + side * v0 - (x - anchor) @ gradient)
        entry, = corpus_generate("plane", {"gradients": [gradient.tolist()],
                                           "offsets": [offset],
                                           "c1_ceiling": 1.0}, 0, fam.window)
        g = dataclasses.replace(entry.patch.g, grad_bound=cap)
        # neither the prefilter nor the centre witness decides the hole
        gap = abs(float(g.values(x[None])[0]) - h)
        assert gap / math.sqrt(1.0 + cap * cap) - K * t <= HIT_MARGIN \
            < gap - K * t
        exact, slack = affine_hits(gradient, offset, anchor, fam, [hole], K)
        assert abs(slack[0]) >= 1e-12 and exact[0] == (i % 2 == 0)
        scan = graph_hit_scan(g, fam, np.array([hole]), K)
        assert not scan.prefiltered[0]
        assert scan.hit[0] == exact[0], i
        verdicts.append(bool(scan.hit[0]))
    assert verdicts.count(True) == verdicts.count(False) == 60


BENCH_PLANES = (0, 3, 6)     # the planes of the audit-planes workload


def _counted(g):
    """``g`` with the point count of every ``values`` call recorded."""
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return g.fn(pts)

    return dataclasses.replace(g, fn=fn), sizes


def _lattice_size(n):
    offs = unit_lattice(n, HIT_LATTICE) * 2.0 - 1.0
    inside = offs[(offs**2).sum(axis=1) <= 1.0 + 1e-12]
    assert (inside == 0.0).all(axis=1).sum() == 1     # the centre is a probe
    return len(inside)


def _assert_same_scan(new, full):
    """Same verdicts; a miss keeps its gap bit for bit, a hit's gap is the
    witnessing probe's, at least the full descent's minimum."""
    assert np.array_equal(new.hit, full.hit)
    assert np.array_equal(new.prefiltered, full.prefiltered)
    assert np.array_equal(new.min_gap[~new.hit], full.min_gap[~full.hit])
    assert np.all(new.min_gap[new.hit] <= HIT_MARGIN)
    assert np.all(new.min_gap[new.hit] >= full.min_gap[full.hit])


def _assert_scan_matches_the_oracle(new, full, prefilter):
    """``new`` against the full scan; without the oracle's prefilter only
    the verdicts can agree, since the scan always prefilters."""
    if prefilter:
        _assert_same_scan(new, full)
    else:
        assert np.array_equal(new.hit, full.hit)
        assert not full.prefiltered.any()


@pytest.mark.parametrize("prefilter", [True, False])
@pytest.mark.parametrize("K", [1.0, 1.25, 1.5])
def test_hit_scan_matches_the_full_scan_on_the_bench_planes(
        demo_family, plane_entries, K, prefilter):
    ids = np.arange(len(demo_family))
    for i in BENCH_PLANES:
        g = plane_entries[i].patch.g
        _assert_scan_matches_the_oracle(
            graph_hit_scan(g, demo_family, ids, K),
            full_hit_scan(g, demo_family, ids, K, prefilter=prefilter),
            prefilter)


@pytest.mark.parametrize("index", BENCH_PLANES)
def test_hit_scan_matches_the_full_scan_in_budget(demo_family, plane_entries,
                                                  monkeypatch, index):
    # every scan of a plane's ledger: stage 1, the hit-consistency pair
    # and the smoothed field's stage-2 scan; between them they hold
    # scanned misses and hits that only the lattice or descent witnesses
    scans = []

    def recording(g, family, ids, K):
        scans.append((g, ids, K))
        return graph_hit_scan(g, family, ids, K)

    monkeypatch.setattr(verification, "graph_hit_scan", recording)
    budget(plane_entries[index].patch, demo_family)
    assert len(scans) == 4
    assert scans[3][0].label != plane_entries[index].patch.g.label
    searched = 0
    for g, ids, K in scans:
        scan = graph_hit_scan(g, demo_family, ids, K)
        _assert_same_scan(scan, full_hit_scan(g, demo_family, ids, K))
        centre = np.abs(g.values(demo_family.base_centers[ids])
                        - demo_family.lifted_centers[ids, 3]) \
            - K * demo_family.ts[ids]
        searched += int((~scan.prefiltered & (centre > HIT_MARGIN)).sum())
    assert searched > 0        # the lattice and descent ran somewhere


def _dips_family():
    """Four holes of radius t on the zero plane, each under its own bump,
    so that at K = 1.5 hole 0 is witnessed only by a lattice probe off its
    centre, hole 1 only by the descent, hole 2 by nothing (a scanned miss:
    the graph's nearest point is the centre, 0.05t outside the
    enlargement), and hole 3 at its centre."""
    t = 0.004
    centres = [[0.45, 0.5, 0.5], [0.5, 0.5, 0.5], [0.55, 0.5, 0.5],
               [0.5, 0.45, 0.5]]
    # (offset from the hole centre along x, bump radius, amplitude) in t;
    # lattice probes lie at multiples of K t / 3 = t / 2 on each axis
    dips = [(0.5, 0.3, 0.8), (0.25, 0.2, 1.2), (0.0, 1.0, 0.45),
            (0.0, 1.0, 0.6)]
    bumps = [bump_field(np.asarray(c) + [dx * t, 0.0, 0.0], w * t, a * t)
             for c, (dx, w, a) in zip(centres, dips)]
    g = ScalarField(
        domain=Ball(np.full(3, 0.5), 0.25),
        fn=lambda pts: sum(b.values(pts) for b in bumps),
        grad_fn=lambda pts: sum(b.gradients(pts) for b in bumps),
        grad_bound=max(b.grad_bound for b in bumps), label="dips")
    return _manual_family(centres, [t] * 4), g


@pytest.mark.parametrize("prefilter", [True, False])
def test_hit_scan_matches_the_full_scan_off_centre(prefilter):
    fam, g = _dips_family()
    ids = np.arange(4)
    scan = graph_hit_scan(g, fam, ids, 1.5)
    assert scan.hit.tolist() == [True, True, False, True]
    _assert_scan_matches_the_oracle(
        scan, full_hit_scan(g, fam, ids, 1.5, prefilter=prefilter),
        prefilter)
    # each hole's search is its own: scanned alone it ends the same
    for i in ids:
        alone = graph_hit_scan(g, fam, ids[i:i + 1], 1.5)
        assert alone.min_gap.tobytes() == scan.min_gap[i:i + 1].tobytes()


def test_hit_scan_decides_each_hole_at_its_first_witness():
    fam, g = _dips_family()
    lattice = _lattice_size(3)
    routes = []
    for i in range(4):
        counted, sizes = _counted(g)
        graph_hit_scan(counted, fam, np.array([i]), 1.5)
        routes.append(sizes)
    assert routes[0] == [1, lattice]                      # lattice witness
    assert routes[1][:2] == [1, lattice]                  # descent witness
    assert set(routes[1][2:]) == {6} and \
        0 < len(routes[1]) - 2 < REFINE_ITERS
    assert routes[2] == [1, lattice] + [6] * REFINE_ITERS  # scanned miss
    assert routes[3] == [1]                               # centre witness


def test_hit_scan_evaluates_once_when_the_centres_decide(demo_family,
                                                         plane_entries):
    # plane[0] at K = 1.5: every hole is either prefiltered or hit at its
    # centre, so one batched evaluation at the base centres decides all
    ids = np.arange(len(demo_family))
    g, sizes = _counted(plane_entries[0].patch.g)
    scan = graph_hit_scan(g, demo_family, ids, 1.5)
    assert sizes == [len(ids)]
    assert scan.prefiltered.any() and scan.hit.any()
    assert np.array_equal(scan.hit, ~scan.prefiltered)


def test_hit_scan_searches_only_the_undecided_holes(demo_family,
                                                    plane_entries):
    # plane[3], stage 1 at K = 1.5: one hole is neither prefiltered nor hit
    # at its centre, and only it gets the lattice and the descent
    ids = demo_family.stage_ids(1)
    g, sizes = _counted(plane_entries[3].patch.g)
    graph_hit_scan(g, demo_family, ids, 1.5)
    assert sizes[:2] == [len(ids), _lattice_size(3)]
    assert set(sizes[2:]) <= {6} and len(sizes) - 2 <= REFINE_ITERS
    # a centre-decided set plus one scanned miss: 40 rounds for it alone
    fam, dips = _dips_family()
    g, sizes = _counted(dips)
    graph_hit_scan(g, fam, np.array([3, 2, 3]), 1.5)
    assert sizes == [3, _lattice_size(3)] + [6] * REFINE_ITERS


# ---------------------------------------------------------------------------
# residue regions and classification
# ---------------------------------------------------------------------------

def test_residue_region_measure_matches_closed_form_and_grid():
    t = 0.01
    center = [0.5, 0.5, 0.5]
    fam = _manual_family([center], [t], epsilons=(0.5,))
    R = fam.E * t
    slope = 0.02
    # offset puts the t/4 exceedance boundary at x0 - 1/2 = -R/3: the
    # residue region is the spherical cap {d > -R/3} of the primed ball
    patch = _tilt_patch(t / 4.0 + slope * R / 3.0, slope)
    budget_cfg = SamplingBudget(32, 256)
    cls = classify_holes(fam, 1, patch, np.array([0]), budget_cfg)
    assert cls.escalated_ids == ()
    est = cls.residue_measures[0]
    assert est == residue_region(fam, 0, patch, budget_cfg)[-1]
    a0 = -R / 3.0
    exact = math.pi * (R - a0) ** 2 * (2.0 * R + a0) / 3.0
    assert abs(est.value - exact) <= est.half_width + 5e-3 * exact

    # dense-grid rasterization of the indicator over the primed ball
    res = 128
    ax = np.linspace(-R, R, res)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1) + center
    pts = pts[np.linalg.norm(pts - center, axis=1) < R]
    plane = fam.plane(1)
    frac = (np.abs(patch.g.values(pts) - plane.heights(pts)) > t / 4.0).mean()
    grid = frac * W3 * R**3
    assert abs(est.value - grid) <= est.half_width + 0.02 * exact


@pytest.mark.parametrize("cap, what, run", [
    pytest.param(bounds.RESIDUE_GRAD_CAP,
                 "the C1 ceiling for residue accounting",
                 lambda fam, patch: classify_holes(
                     fam, 1, patch, np.array([0]), SamplingBudget(4, 16)),
                 id="classify_holes"),
    pytest.param(bounds.RESIDUE_GRAD_CAP,
                 "the C1 ceiling for residue accounting",
                 lambda fam, patch: residue_energies(
                     fam, 1, [0], patch, SamplingBudget(4, 16)),
                 id="residue_energies"),
    pytest.param(bounds.BUDGET_GRAD_CAP, "the budget C1 ceiling",
                 lambda fam, patch: budget(patch, fam), id="budget"),
    pytest.param(1.0 / 64.0, "the configured C1 class",
                 lambda fam, patch: hole_intersection_mass(patch, fam),
                 id="hole_intersection_mass")])
def test_c1_ceiling_is_checked_at_every_entry_point(cap, what, run):
    fam = _manual_family([[0.5, 0.5, 0.5]], [0.004], epsilons=(0.5,))
    assert fam.r == 1.0 / 64.0               # the configured class's cap
    run(fam, _flat_patch(c1=cap))            # a field at the cap passes
    for c1 in (cap + 2e-12, 1.0):
        with pytest.raises(PreconditionError, match=f"exceeds {what} ") as err:
            run(fam, _flat_patch(c1=c1))
        assert err.value.details == {"c1_bound": c1, "cap": cap}


def test_residue_region_rejects_overhanging_hole():
    t = 0.01
    fam = _manual_family([[0.5, 0.5, 0.5], [0.5 + 0.245, 0.5, 0.5]],
                         [t, t], epsilons=(0.5,))
    for run in (lambda ids: classify_holes(fam, 1, _flat_patch(), ids,
                                           SamplingBudget(4, 16)),
                lambda ids: residue_energies(fam, 1, ids, _flat_patch(),
                                             SamplingBudget(4, 16))):
        with pytest.raises(AuditFailure, match="hole 1 leaves the window"):
            run(np.array([0, 1]))


@pytest.mark.parametrize("offset, eps, indeterminate, u", [
    (0.0025, 0.577, (0,), ()), (0.0026, 0.41, (), (0,))],
    ids=["indeterminate", "u"])
def test_classification_escalates_straddling_holes(offset, eps,
                                                   indeterminate, u):
    fam = _manual_family([[0.5, 0.5, 0.5]], [0.01], epsilons=(eps,))
    args = (fam, 1, _tilt_patch(offset), np.array([0]),
            SamplingBudget(16, 64))
    cls = classify_holes(*args)
    assert cls == per_hole_classify_holes(*args)
    assert cls.escalated_ids == (0,)
    assert cls.residue_measures[0].sample_count == 4 * 16 * 64
    assert cls.indeterminate_ids == indeterminate and cls.u_ids == u
    assert cls.d_ids == ()


def test_classification_matches_per_hole_reference_on_a_mixed_stage():
    # at eps = E^-3 the product eps E^3 is exactly 1, so no hole of the
    # stage is an algebraic d and all are sampled: hole 5 misses the t/4
    # band (d), holes 3, 1 and 4 lie wholly in the residue (u), hole 2
    # straddles and is escalated, and hole 0's residue fills its primed
    # ball, which puts it at |B| = eps |B'|, where rounding makes it d
    ts = [0.004, 0.006, 0.011, 0.012, 0.007, 0.011]
    centers = [[0.35 + 0.07 * i, 0.5, 0.5] for i in range(5)] \
        + [[0.30, 0.55, 0.5]]
    fam = _manual_family(centers, ts, epsilons=(1.0 / 1.5**3,))
    args = (fam, 1, _tilt_patch(0.003, 0.01), np.array([5, 3, 0, 2, 1, 4]),
            SamplingBudget(16, 64))
    cls = classify_holes(*args)
    assert cls == per_hole_classify_holes(*args)
    assert list(cls.residue_measures) == [5, 3, 0, 2, 1, 4]
    assert None not in cls.residue_measures.values()
    assert cls.u_ids == (3, 1, 4) and cls.d_ids == (5, 0, 2)
    assert cls.escalated_ids == (2,) and cls.indeterminate_ids == ()


def test_classification_shortcut_takes_every_hole_of_a_stage_alike():
    # |B| / |B'| is E^-3 for every radius, so the algebraic shortcut takes
    # all holes of a stage or none of them, also at eps = E^-3 exactly
    ts = [0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01, 0.011, 0.012,
          0.013]
    centers = [[0.30 + 0.045 * i, 0.5, 0.5] for i in range(len(ts))]
    ids = np.arange(len(ts))
    for eps, algebraic in ((1.0 / 1.5**3, False), (0.0025, True)):
        fam = _manual_family(centers, ts, epsilons=(eps,))
        cls = classify_holes(fam, 1, _flat_patch(), ids,
                             SamplingBudget(4, 16))
        assert [est is None for est in cls.residue_measures.values()] \
            == [algebraic] * len(ts)
        assert cls.d_ids == tuple(ids.tolist())


def test_classification_u_branch_with_full_residue():
    t = 0.01
    fam = _manual_family([[0.5, 0.5, 0.5]], [t], epsilons=(0.5,))
    # offset t/2 exceeds t/4 over the whole primed ball, so the residue
    # carries more than (1/eps) times the hole volume
    patch = _tilt_patch(t / 2.0)
    cls = classify_holes(fam, 1, patch, np.array([0]),
                         SamplingBudget(16, 64))
    assert cls.u_ids == (0,)
    assert cls.d_ids == ()
    assert cls.residue_measures[0] is not None


def test_classification_d_branch_with_empty_residue():
    t = 0.01
    fam = _manual_family([[0.5, 0.5, 0.5]], [t], epsilons=(0.5,))
    # offset stays under t/4 everywhere on the primed ball: empty residue
    patch = _tilt_patch(0.002)
    cls = classify_holes(fam, 1, patch, np.array([0]),
                         SamplingBudget(16, 64))
    assert cls.d_ids == (0,)
    assert cls.u_ids == ()


def test_classification_algebraic_fast_path_skips_sampling(demo_family,
                                                           plane_entries):
    fam = demo_family
    patch = plane_entries[0].patch
    scan = graph_hit_scan(patch.g, fam, fam.stage_ids(1), K=1.5)
    eps1 = fam.epsilons[0]
    assert eps1 * fam.E**3 < 1.0      # every hit is algebraically d
    cls = classify_holes(fam, 1, patch, scan.hit_ids, SamplingBudget(8, 32))
    assert cls.u_ids == () and cls.indeterminate_ids == ()
    assert set(cls.d_ids) == set(int(i) for i in scan.hit_ids)
    assert all(v is None for v in cls.residue_measures.values())


# ---------------------------------------------------------------------------
# disjointness and subfamily selection
# ---------------------------------------------------------------------------

def test_disjointness_audit_accepts_separated_holes():
    t = 0.004
    fam = _manual_family([[0.45, 0.5, 0.5], [0.55, 0.5, 0.5]], [t, t])
    patch = _flat_patch()
    assert disjointness_audit(fam, 1, patch, np.array([0, 1])) == ()


def test_disjointness_audit_records_overlapping_primed_balls():
    t = 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.5 + 2.5 * t, 0.5, 0.5]],
                         [t, t])   # gap 2.5t < 2Et = 3t
    # the flat field has no residue: the exact check needs none
    violations = disjointness_audit(fam, 1, _flat_patch(), np.array([0, 1]))
    assert [v.pair for v in violations] == [(0, 1)]
    assert "overlap by 2.000e-03" in violations[0].message   # 3t - 2.5t


def test_sampled_shared_probes_find_the_overlap_of_two_residue_balls():
    # positive control of the sampled oracle: offset t/2 leaves the t/4
    # band everywhere, so both primed balls are residue and probes in
    # their overlap lie in both residue regions
    t = 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.5 + 2.5 * t, 0.5, 0.5]],
                         [t, t])
    patch = _tilt_patch(t / 2.0, slope=0.0)
    shared = sampled_shared_probes(fam, 1, patch, np.array([0, 1]))
    assert list(shared) == [(0, 1)]
    for hole in (0, 1):
        assert np.linalg.norm(shared[(0, 1)] - fam.base_centers[hole]) \
            < fam.E * t
    # the exact check names the pair once
    violations = disjointness_audit(fam, 1, patch, np.array([0, 1]))
    assert [v.pair for v in violations] == [(0, 1)]


# gaps |c_i - c_j| - E(t_i + t_j) of a hole to an earlier one: tangent,
# inside and beyond the audit's tolerance, overlapping, apart; "nested"
# puts the centres less than E|t_i - t_j| apart
PAIR_GAPS = (0.0, -5e-10, -2e-9, -1e-3, 1e-3, "nested")


@st.composite
def _one_stage_families(draw):
    """2-5 holes of one stage near the window centre, each placed at a
    ``PAIR_GAPS`` gap from a random earlier hole."""
    count = draw(st.integers(2, 5))
    ts = [draw(st.floats(0.002, 0.01)) for _ in range(count)]
    unit = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 0.1)
    centers = [np.full(3, 0.5) + 0.05 * draw(unit) / math.sqrt(3.0)]
    for j in range(1, count):
        i = draw(st.integers(0, j - 1))
        u = draw(unit)
        gap = draw(st.sampled_from(PAIR_GAPS))
        reach = 1.5 * (ts[i] + ts[j])
        dist = draw(st.floats(0.0, 0.9)) * 1.5 * abs(ts[i] - ts[j]) \
            if gap == "nested" else reach + gap
        centers.append(centers[i] + dist * u / np.linalg.norm(u))
    return _manual_family(centers, ts)


@settings(max_examples=60, deadline=None)
@given(_one_stage_families())
def test_disjointness_audit_names_each_overlapping_pair_once(fam):
    ids = np.arange(len(fam))
    # every primed ball lies in its residue region: offset - slope / 4
    # clears the largest t / 4
    patch = _tilt_patch(0.01)
    x, rad = fam.base_centers, fam.E * fam.ts
    i, j = np.triu_indices(len(fam), 1)
    gaps = np.linalg.norm(x[i] - x[j], axis=1) - (rad[i] + rad[j])
    overlap = {(int(a), int(b)): g for a, b, g in zip(i, j, gaps)}
    # the oracle only ever finds primed balls that overlap
    for pair in sampled_shared_probes(fam, 1, patch, ids, seed=3):
        assert overlap[pair] < 0.0
    pairs = [v.pair for v in disjointness_audit(fam, 1, patch, ids)]
    assert sorted(pairs) == sorted(
        p for p, g in overlap.items() if g < -GEOMETRY_TOL)


def test_budget_fails_a_stage_with_overlapping_hit_holes():
    # every accounting check passes; the recorded overlap alone must fail
    # the stage and the ledger
    t = 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.5 + 2.5 * t, 0.5, 0.5]],
                         [t, t])
    ledger = budget(_tilt_patch(2.0 * t, 0.011), fam)
    (stage,) = ledger.stages
    assert stage.classification.hit_ids == (0, 1)
    assert [v.pair for v in stage.violations] == [(0, 1)]
    assert {r.check: r.status for r in ledger_rows(ledger)} == {
        "budget-total": "pass", "u-mass": "pass", "d-energy": "pass",
        "residue-disjoint": "fail"}
    assert stage.status == ledger.status == "fail"


def test_budget_smooths_over_hit_holes_the_disjointness_audit_passes():
    # the primed balls of the two stage-1 hit d-holes overlap by 5e-10,
    # inside the audit's 1e-9 tolerance: the stage passes the audit and
    # is smoothed over both holes, as it is for tangent balls
    t = 0.004
    fam = dataclasses.replace(
        _manual_family([[0.5, 0.5, 0.5], [0.5 + 3.0 * t - 5e-10, 0.5, 0.5],
                        [0.6, 0.5, 0.5]], [t, t, t / 2.0],
                       epsilons=(0.0025, 0.00125)),
        ks=np.array([1, 1, 2]))
    ledger = budget(_tilt_patch(2.0 * t, 0.0), fam)
    stage = ledger.stages[0]
    assert stage.classification.d_ids == (0, 1)
    assert stage.violations == ()
    rows = _checks(stage.rows)
    assert rows["residue-disjoint"].status == "pass"
    assert "smoothing-drift" in rows


def test_family_audit_fails_a_level_whose_radius_grows():
    # level 2 grows in its only hole, or in a hole after a smaller first
    # one: the decay check reads every hole of a level, not its first
    for centers, ts, levels in [
            ([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]], [0.004, 0.01], [1, 2]),
            ([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5], [0.5, 0.6, 0.5]],
             [0.004, 0.002, 0.01], [1, 2, 2])]:
        fam = _manual_family(centers, ts, levels=levels)
        rows = family_invariant_audit(fam, AuditSettings(floor_samples=256))
        (decay,) = [r for r in rows if r.id == "family/radius-decay"]
        assert (decay.measured, decay.bound, decay.margin, decay.status) \
            == (0.0, 1.0, -1.0, "fail")


def test_floor_replay_measures_every_hole_with_its_own_radius():
    # one level of a small hole, then a large one: the replayed share
    # counts the large ball, about (0.05 / 0.25)^3 = 0.008 of the window
    fam = _manual_family([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]], [0.001, 0.05])
    rows = family_invariant_audit(fam)
    (floor,) = [r for r in rows if r.check == "packing-floor"]
    assert floor.id == "family/stage-1/level-1/ball-floor"
    assert 0.004 < floor.measured < 0.012


def test_family_audit_accepts_nested_primed_balls():
    t1, t2 = 0.012, 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.502, 0.5, 0.5]], [t1, t2],
                         levels=[1, 2])
    rows = family_invariant_audit(fam, AuditSettings(floor_samples=256))
    pair_rows = [r for r in rows if r.check == "packing-pairs"]
    assert pair_rows and all(r.status == "pass" for r in pair_rows)
    # negative control: a two-ball toy family cannot meet the replayed
    # coverage floor, so those rows must come back red
    floor_rows = [r for r in rows if r.check == "packing-floor"]
    assert floor_rows and all(r.status == "fail" for r in floor_rows)


def test_floor_replay_of_a_covered_window_needs_more_samples():
    # the level-1 hole's footprint covers the whole window, so the level-2
    # replay has no uncovered point to draw
    fam = _manual_family([[0.5, 0.5, 0.5], [0.52, 0.5, 0.5]], [0.11, 0.01],
                         levels=[1, 2])
    with pytest.raises(NeedsMoreSamples, match="stage 1 level 2"):
        family_invariant_audit(fam, AuditSettings(floor_samples=64))


def test_sampled_shared_probes_find_nothing_on_the_demo_planes(
        demo_family, plane_entries, corpus_budgets):
    # every stage's hit set of every demo plane's ledger, with the field
    # the stage audits: no probe lies in two residue regions
    _, stages = corpus_budgets
    assert len(plane_entries) == 16
    audited = [stage for entry in plane_entries
               for stage in stages[entry.patch.source]]
    assert len(audited) == 16 * demo_family.depth
    assert [k for k, _, _ in audited] == \
        list(range(1, demo_family.depth + 1)) * 16
    assert sum(len(ids) for _, _, ids in audited) > 0
    for k, patch, hit_ids in audited:
        assert sampled_shared_probes(demo_family, k, patch, hit_ids) == {}


def test_disjointness_audit_is_strict_about_nested_hit_pairs():
    # nesting satisfies the packing invariant, but two *hit* holes whose
    # primed balls touch still fail loudly rather than accounting twice
    t1, t2 = 0.012, 0.004
    fam = _manual_family([[0.5, 0.5, 0.5], [0.502, 0.5, 0.5]], [t1, t2],
                         levels=[1, 2])
    violations = disjointness_audit(fam, 1, _flat_patch(), np.array([0, 1]))
    assert [v.pair for v in violations] == [(0, 1)]


def _grid_stage(count, t):
    """One stage of ``count`` equal disjoint holes on a grid in the window."""
    side = math.ceil(count ** (1.0 / 3.0))
    axis = np.linspace(0.36, 0.64, side)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)[:count]
    return _manual_family(grid, np.full(count, t))


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_audits_of_four_thousand_holes_need_no_dense_table():
    fam = _grid_stage(4000, 0.003)
    rows = []
    peak = _traced_peak_mb(lambda: rows.extend(family_invariant_audit(
        fam, AuditSettings(floor_samples=256))))
    assert peak <= 64.0
    assert [r.status for r in rows if r.check == "packing-pairs"] == ["pass"]
    audits = []
    peak = _traced_peak_mb(lambda: audits.append(disjointness_audit(
        fam, 1, _tilt_patch(0.01), np.arange(4000))))
    assert peak <= 64.0
    assert audits == [()]


# ---------------------------------------------------------------------------
# budget ledgers
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plane_ledger(demo_family, plane_entries):
    return budget(plane_entries[0].patch, demo_family)


def _checks(rows):
    return {r.check: r for r in rows}


def test_budget_zero_field_has_zero_hit_mass(demo_family):
    ledger = budget(_flat_patch(), demo_family)
    assert ledger.verdict.measured == 0.0
    assert ledger.energy.value == 0.0
    assert ledger.status == "pass"
    assert all(_checks(s.rows)["u-mass"].measured == 0.0
               for s in ledger.stages)
    assert all(not s.classification.hit_ids for s in ledger.stages)


def test_budget_plane_hitter_single_stage(demo_family, plane_ledger):
    ledger = plane_ledger
    assert len(ledger.stages) == demo_family.depth == 2
    assert ledger.status == "pass"
    st = ledger.stages[0]
    assert st.classification.hit_ids        # the offset plane reaches holes
    rows = _checks(st.rows)
    assert rows["u-mass"].measured == 0.0   # all hits are d-classified
    assert 0 < rows["d-energy"].measured <= DBOUND_C
    # independent mass sums straight from the family arrays
    expect = [float(np.sum(W3 * demo_family.ts[
        list(s.classification.hit_ids)] ** 3))
              for s in ledger.stages]
    assert st.hit_mass == expect[0]
    assert ledger.verdict.measured == sum(expect)
    assert ledger.c_empirical <= LEDGER_C
    assert ledger.verdict.status == "pass"


def test_ledger_rows_flatten_verdicts(demo_family, plane_ledger):
    ledger = plane_ledger
    rows = ledger_rows(ledger)
    ids = [r.id for r in rows]
    src = ledger.source
    assert f"budget/{src}/verdict" in ids
    for k in (1, 2):
        assert f"budget/{src}/stage-{k}/u-mass" in ids
        assert f"budget/{src}/stage-{k}/d-energy" in ids
        assert f"budget/{src}/stage-{k}/residue-disjoint" in ids
    assert f"budget/{src}/stage-1/hit-consistency" in ids
    assert all(r.status == "pass" for r in rows)
    assert all(st.inconsistent_ids == () for st in ledger.stages)
    eps_sum = sum(demo_family.epsilons[:demo_family.depth])
    verdict = rows[0]
    assert verdict.bound == pytest.approx(
        LEDGER_C * (max(ledger.energy.lower(), 0.0) + eps_sum))
    assert [r.bound for r in rows if r.check == "u-mass"] == \
        list(demo_family.epsilons[:demo_family.depth])


def test_ledger_rows_report_the_run_dbound_constant(demo_family,
                                                   plane_entries,
                                                   plane_ledger,
                                                   monkeypatch):
    # the shipped planes sit near ratio 2449, so a constant of 1000 must
    # turn the d-energy rows red and be the bound they report
    monkeypatch.setattr(verification, "DBOUND_C", 1000.0)
    ledger = budget(plane_entries[0].patch, demo_family)
    for st, ref in zip(ledger.stages, plane_ledger.stages):
        row = _checks(st.rows)["d-energy"]
        assert row.bound == 1000.0
        assert row.measured == _checks(ref.rows)["d-energy"].measured
        assert row.margin == 1000.0 - row.measured
        assert row.status == "fail"
    assert ledger.status == "fail"


def test_budget_d_energy_equals_a_per_hole_residue_energy_loop(
        demo_family, plane_entries, monkeypatch):
    # record what each stage hands the batched estimator, then redo it
    # one residue_energy call per hole
    calls = []

    def spy(family, k, hole_ids, patch, budget_cfg, seed=0):
        out = residue_energies(family, k, hole_ids, patch, budget_cfg, seed)
        calls.append((list(hole_ids), patch, budget_cfg, seed, out))
        return out

    monkeypatch.setattr(verification, "residue_energies", spy)
    ledger = budget(plane_entries[0].patch, demo_family)
    assert len(calls) == len(ledger.stages) == 2
    for st, (ids, patch, budget_cfg, seed, batched) in zip(ledger.stages,
                                                           calls):
        assert tuple(ids) == st.classification.d_ids and ids
        singles = [residue_energy(demo_family, h, patch, budget_cfg, seed)
                   for h in ids]
        assert singles == batched
        ratios = [demo_family.volumes[h] / est.lower()
                  for h, est in zip(ids, singles)]
        assert max(ratios) == _checks(st.rows)["d-energy"].measured


def test_d_energy_reads_the_family_hole_volume():
    # at this radius omega_3 * t ** 3 taken as a scalar power and as an
    # array power can round apart (numpy 2.4.6 does); the row reads the
    # one |B|, family.volumes, as the u-mass and budget-total rows do
    t = 0.005241553890730662
    fam = _manual_family([[0.5, 0.5, 0.5]], [t])
    # the plane of gradient (0.01, 0, 0) through the lifted centre
    patch = _tilt_patch(offset=float(fam.lifted_centers[0, 3]), slope=0.01)
    settings = AuditSettings()
    ledger = budget(patch, fam, settings)
    assert ledger.stages[0].classification.d_ids == (0,)
    (energy,) = residue_energies(fam, 1, [0], patch, settings.dbound_budget,
                                 settings.seed)
    assert _checks(ledger.stages[0].rows)["d-energy"].measured \
        == fam.volumes[0] / energy.lower()
    assert ledger.verdict.measured == fam.volumes[0]


def test_family_volumes_are_one_array_power(demo_family):
    fam = demo_family
    assert fam.volumes.tobytes() == (W3 * fam.ts ** 3).tobytes()


def test_residue_energies_name_the_first_bad_hole_of_a_batch():
    t = 0.01
    fam = _manual_family([[0.5, 0.5, 0.5], [0.745, 0.5, 0.5],
                          [0.5, 0.745, 0.5]], [t, t, t])
    patch, small = _tilt_patch(0.003), SamplingBudget(4, 16)
    for order, first in (([0, 1, 2], 1), ([0, 2, 1], 2)):
        with pytest.raises(AuditFailure) as single:
            residue_energy(fam, first, patch, small)
        with pytest.raises(AuditFailure) as batch:
            residue_energies(fam, 1, order, patch, small)
        assert str(batch.value) == str(single.value)
        assert batch.value.details == single.value.details
        assert batch.value.details["hole_id"] == first
    with pytest.raises(PreconditionError) as single:
        residue_energy(fam, 0, _flat_patch(c1=1.0), small)
    with pytest.raises(PreconditionError) as batch:
        residue_energies(fam, 1, [0, 1, 2], _flat_patch(c1=1.0), small)
    assert str(batch.value) == str(single.value)


def test_residue_energies_take_one_stage_at_a_time(demo_family):
    ids = [int(demo_family.stage_ids(1)[0]), int(demo_family.stage_ids(2)[0])]
    wrong = f"hole {ids[1]} is of stage 2, not stage 1"
    with pytest.raises(ValueError, match=wrong):
        residue_energies(demo_family, 1, ids, _flat_patch(),
                         SamplingBudget(4, 16))
    with pytest.raises(ValueError, match=wrong):
        classify_holes(demo_family, 1, _flat_patch(), ids,
                       SamplingBudget(4, 16))
    with pytest.raises(ValueError, match=wrong):
        disjointness_audit(demo_family, 1, _flat_patch(), ids)
    assert residue_energies(demo_family, 1, [], _flat_patch(),
                            SamplingBudget(4, 16)) == []


# ---------------------------------------------------------------------------
# smoothing over a stage's d-holes
# ---------------------------------------------------------------------------

def _smoothing_chain(patch, family, selected, eps_next, match_tol, seed=0,
                     check_budget=128):
    """Reference: one nested two-field blend per selected ball, in order."""
    current = patch.g
    inners = {}
    for hole_id in selected:
        hole_id = int(hole_id)
        t = float(family.ts[hole_id])
        primed_radius = family.E * t
        sigma = eps_next * primed_radius / 3.0
        if t not in inners:
            inners[t] = mollify(patch.g, sigma,
                                label=f"{patch.g.label}^{sigma:.2e}")
        cut = make_cutoff(Ball(family.base_centers[hole_id], primed_radius),
                          eps_next)
        current = blend_disjoint(current, [(inners[t], cut)],
                                 check_budget=check_budget, seed=seed,
                                 match_tol=match_tol,
                                 label=f"{patch.g.label}~{hole_id}")
    return current


def test_smooth_over_subfamily_matches_nested_blend_chain(demo_family,
                                                          plane_entries):
    fam = demo_family
    plane = plane_entries[0].patch
    selected = graph_hit_scan(plane.g, fam, fam.stage_ids(1), K=1.5).hit_ids
    assert len(selected) >= 2
    # smoothing leaves a plane unchanged to rounding, so smooth a wavy
    # field over the plane's balls to make the blend move the values
    k = np.array([9e4, -4e4, 7e4])
    g = ScalarField(
        domain=plane.g.domain,
        fn=lambda pts: plane.g.values(pts) + 1e-6 * np.sin(pts @ k),
        grad_fn=lambda pts: (plane.g.gradients(pts)
                             + 1e-6 * np.cos(pts @ k)[:, None] * k),
        grad_bound=plane.g.grad_bound + 1e-6 * float(np.linalg.norm(k)),
        label="wavy")
    patch = _field_patch(g, "wavy", g.grad_bound)
    eps_next = float(fam.epsilons[1])
    tol = eps_next * float(fam.stage_radii[0])
    flat = smooth_over_subfamily(patch, fam, selected, eps_next, tol)
    chain = _smoothing_chain(patch, fam, selected, eps_next, tol)
    rng = substream(21, "smooth-vs-chain")
    groups = [sample_shell(rng, fam.window.center, 0.0, fam.window.radius,
                           4096), _ball_probes(fam, selected)]
    for hole_id in selected:
        c, t = fam.base_centers[hole_id], fam.E * float(fam.ts[hole_id])
        groups += [sample_shell(rng, c, 0.0, t * (1.0 - 2.0 * eps_next), 32),
                   sample_shell(rng, c, t * (1.0 - 2.0 * eps_next),
                                t * (1.0 - eps_next), 128),
                   sample_shell(rng, c, t * (1.0 - eps_next), t, 32),
                   sample_shell(rng, c, t, t, 16)]
    pts = np.vstack(groups)
    vals = flat.values(pts)
    assert not np.array_equal(vals, g.values(pts))   # the blend moved it
    assert np.array_equal(vals, chain.values(pts))
    assert np.array_equal(flat.gradients(pts), chain.gradients(pts))
    assert flat.grad_bound == chain.grad_bound
    assert flat.domain == chain.domain and flat.label == chain.label


def test_smoothed_plane_at_a_lone_point_equals_its_batch_row():
    # the budget's smoothing recipe on a corpus plane: blend_disjoint's
    # values and gradients at each point alone are its batch row's bytes
    g = corpus_generate("plane", {"gradients": [[0.0085, 0.0085, 0.0]],
                                  "offsets": [0.0082]}, 0,
                        Ball(np.full(3, 0.5), 0.25))[0].patch.g
    eps, t = 0.00125, 0.03
    centers = [np.array([0.45, 0.5, 0.5]), np.array([0.56, 0.5, 0.5])]
    pieces = [(mollify(g, eps * t / 3.0), make_cutoff(Ball(c, t), eps))
              for c in centers]
    smoothed = blend_disjoint(g, pieces, check_budget=128, match_tol=1e-3)
    rng = substream(23, "lone-smoothed")
    pts = np.vstack([sample_shell(rng, c, 0.0, t, 300) for c in centers])
    vals, grads = smoothed.values(pts), smoothed.gradients(pts)
    for i in range(len(pts)):
        p = pts[i:i + 1]
        assert smoothed.values(p).tobytes() == vals[i:i + 1].tobytes()
        assert smoothed.gradients(p).tobytes() == grads[i:i + 1].tobytes()


def test_smooth_over_a_thousand_disjoint_balls():
    # a nested chain of blends recursed once per ball and overflowed the
    # interpreter stack near 500 balls; the flat field has no such depth
    axis = 0.365 + 0.03 * np.arange(10)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    fam = _manual_family(grid, np.full(len(grid), 0.004))
    patch = _tilt_patch(0.001)
    selected = np.arange(len(grid))
    smoothed = smooth_over_subfamily(patch, fam, selected, 0.05, 1e-3)
    probes = np.vstack([_ball_probes(fam, selected),
                        sample_shell(substream(22, "thousand"),
                                     fam.window.center, 0.0,
                                     fam.window.radius, 4096)])
    vals = smoothed.values(probes)
    grads = smoothed.gradients(probes)
    # mollifying an affine field reproduces it up to rounding
    assert np.max(np.abs(vals - patch.g.values(probes))) <= 1e-15
    assert np.max(np.abs(grads - patch.g.gradients(probes))) <= 1e-12
    assert smoothed.grad_bound == pytest.approx(0.02 + 1000 * 3.0 * 0.05)


# ---------------------------------------------------------------------------
# coverage, porosity, hole mass
# ---------------------------------------------------------------------------

def test_coverage_deficit_within_relaxed_bound(demo_family, demo_config):
    stop = demo_config.build.stop_fractions[0]
    deficit = coverage_deficit(demo_family, k=1, stop_fraction=stop)
    assert demo_family.plane(1).slope == 0.0
    assert deficit.row.status == "pass"
    assert deficit.row.measured == deficit.estimate.upper()
    # a flat plane's area element is 1
    assert deficit.row.bound == pytest.approx(2.0 * stop * W3 * 0.25**3)


def _exhaustive_witness(fam, p):
    """Best (hole id, ratio) by a scan over every hole: the highest
    ratio, the lowest id among equals."""
    dist = np.linalg.norm(fam.lifted_centers - p, axis=1)
    eligible = (dist < fam.L * fam.ts) & (dist >= fam.ts)
    ratios = np.where(eligible, fam.ts / dist, -1.0)
    best = int(np.argmax(ratios))
    return best, float(ratios[best])


def test_porosity_witness_matches_exhaustive_scan(demo_family, demo_config):
    fam = demo_family
    # the audit's own points: its sample count and seed
    pts = sample_truncated_P(truncated_P(fam),
                             demo_config.audit.porosity_samples,
                             seed=demo_config.audit.seed)
    assert len(pts) == 1000
    holes, ratios = porosity_witnesses(pts, fam)
    assert len(holes) == len(ratios) == len(pts)
    for p, hole, ratio in zip(pts, holes.tolist(), ratios.tolist()):
        assert ratio >= 1.0 / fam.L - 1e-6
        assert (hole, ratio) == _exhaustive_witness(fam, p)
        # the witness ball is the hole itself, which the set avoids
        d = np.linalg.norm(fam.lifted_centers[hole] - p)
        assert ratio == pytest.approx(float(fam.ts[hole]) / d, rel=1e-12)
    # the one-point case is the same answer
    for i in (0, 499, 999):
        assert porosity_witness(pts[i], fam) == (holes[i], ratios[i])

    # a planted tie: holes 1 and 2 sit at the same distance 2^-6 from the
    # point, with the same radius, so their ratios tie exactly; hole 0 is
    # eligible but farther
    d, t = 2.0**-6, 0.01
    base = np.array([[0.5, 0.5 + 1.5 * d, 0.5], [0.5 + d, 0.5, 0.5],
                     [0.5 - d, 0.5, 0.5]])
    fam = _manual_family(base, [t, t, t])
    p = np.array([0.5, 0.5, 0.5, 2.0 * t])    # at the holes' height
    hole, ratio = porosity_witness(p, fam)
    assert (hole, ratio) == (1, t / d) == _exhaustive_witness(fam, p)
    assert ((fam.lifted_centers[hole] - p) / d).tolist() == [1.0, 0, 0, 0]
    # swapping the tied holes keeps id 1, now the hole on the other side
    swapped = _manual_family(base[[0, 2, 1]], [t, t, t])
    hole, _ = porosity_witness(p, swapped)
    assert hole == 1
    assert ((swapped.lifted_centers[hole] - p) / d).tolist() \
        == [-1.0, 0, 0, 0]
    assert porosity_witnesses(np.vstack([p, p]), fam)[0].tolist() == [1, 1]


def test_porosity_row_ratios_are_the_per_point_witness_ratios(demo_family):
    pts = sample_truncated_P(truncated_P(demo_family), 200, seed=3)
    row, ratios, failure = porosity_row(pts, demo_family)
    assert failure is None and row.status == "pass"
    assert ratios.tolist() == [porosity_witness(p, demo_family)[1]
                               for p in pts]
    assert row.measured == ratios.min()


def test_porosity_names_the_first_failing_point_in_order(monkeypatch):
    # one hole of radius t lifted to (c, 2t); a point 3t from it has ratio
    # 1/3, above 1/L, so a floor of 1/2 makes it a low-ratio point
    t = 0.01
    fam = _manual_family([[0.5, 0.5, 0.5]], [t])
    monkeypatch.setattr(bounds, "WITNESS_TOL", 1.0 / fam.L - 0.5)
    low = np.array([0.5 + 3.0 * t, 0.5, 0.5, 2.0 * t])
    far = np.array([10.0, 10.0, 10.0, 10.0])
    for pts, named in (([low, far], low), ([far, low], far)):
        with pytest.raises(AuditFailure) as exc:
            porosity_witnesses(np.array(pts), fam)
        assert exc.value.details["point"] == named.tolist()
        assert ("ratio" in exc.value.details) == (named is low)
        message = ("best witness ratio" if named is low
                   else "no hole's enlargement contains the point")
        assert str(exc.value).startswith(message)
        row, ratios, failure = porosity_row(np.array(pts), fam)
        assert row.status == "fail" and row.measured == 0.0
        assert len(ratios) == 0 and failure == str(exc.value)


def test_porosity_witness_rejects_far_points(demo_family):
    with pytest.raises(AuditFailure):
        porosity_witness(np.array([10.0, 10.0, 10.0, 10.0]), demo_family)


def test_hole_mass_capped_by_hit_cross_sections(demo_family, plane_entries):
    patch = plane_entries[0].patch
    check = hole_intersection_mass(patch, demo_family)
    assert check.row.status == "pass"
    assert check.row.bound == pytest.approx(
        math.sqrt(1.0 + demo_family.r**2) * check.hit_mass)
    assert check.row.measured == check.mass.upper() <= check.row.bound
    assert check.hit_count > 0


def test_hole_mass_zero_for_certified_missers(demo_family, nonplane_entries):
    patch = nonplane_entries[0].patch
    check = hole_intersection_mass(patch, demo_family)
    assert check.hit_count == 0
    assert check.mass.value == 0.0
    assert check.row.bound == 0.0


# ---------------------------------------------------------------------------
# family invariants (including fault injection)
# ---------------------------------------------------------------------------

def test_family_invariants_all_pass(demo_family):
    rows = family_invariant_audit(demo_family)
    assert rows and all(r.status == "pass" for r in rows)
    floors = [r for r in rows if r.check == "packing-floor"]
    assert floors
    floor = (1.0 / (2.0 * demo_family.E)) ** 3 / 2.0
    assert all(r.measured >= floor for r in floors)
    # each row's bound is the floor the build certified, from one place
    assert all(r.id.endswith("/ball-floor")
               and r.bound == ball_floor(demo_family.E, demo_family.n)
               for r in floors)


def test_family_invariants_name_offending_pair(demo_family):
    fam = demo_family
    ids = fam.stage_ids(1)
    bad_centers = fam.base_centers.copy()
    # drag the second stage-1 hole next to the first: partial overlap
    bad_centers[ids[1]] = bad_centers[ids[0]] + 1e-4
    broken = dataclasses.replace(fam, base_centers=bad_centers)
    rows = family_invariant_audit(broken, AuditSettings(floor_samples=256))
    fails = [r for r in rows if r.status == "fail"]
    assert fails
    named = [r for r in fails if f"pair-{ids[0]}-{ids[1]}" in r.id
             or f"pair-{ids[1]}-{ids[0]}" in r.id]
    assert named


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_audit_row_round_trip():
    row = AuditRow(id="x/y", check="c", measured=1.5, bound=2.0, margin=0.5,
                   status="pass")
    assert AuditRow.from_dict(row.as_dict()) == row
    assert set(row.as_dict()) == {"id", "lemma_ref", "measured", "bound",
                                  "margin", "status"}


@pytest.mark.parametrize("key", ["measured", "bound", "margin"])
def test_audit_row_numbers_follow_the_number_rule(key):
    # a d-energy ratio may be inf, so a row's numbers need not be finite;
    # a bool, a string or an int too large for a float is no number
    row = AuditRow("x/y", "c", 1.5, 2.0, 0.5, "pass").as_dict()
    for value in (math.inf, math.nan, 3):
        assert float(getattr(AuditRow.from_dict({**row, key: value}), key)) \
            == pytest.approx(value, nan_ok=True)
    for value in (True, "1.5", None, 10**400):
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            AuditRow.from_dict({**row, key: value})


def test_row_constructors_derive_margin_and_status():
    above = AuditRow.at_most("a", "c", 1.0, 3.0)
    assert (above.margin, above.status) == (2.0, "pass")
    assert AuditRow.at_most("a", "c", 3.0, 1.0).status == "fail"
    assert AuditRow.at_most("a", "c", 1.0 + 1e-16, 1.0, ok=True).status \
        == "pass"
    below = AuditRow.at_least("a", "c", 1.0, 3.0)
    assert (below.margin, below.status) == (-2.0, "fail")
    assert AuditRow.at_least("a", "c", 3.0, 1.0).status == "pass"
    # a sampled value: margin and status from the lower end of its interval
    sampled = AuditRow.at_least("a", "c", 0.5, 0.25, half_width=0.25)
    assert (sampled.measured, sampled.margin, sampled.status) == (
        0.5, 0.0, "pass")
    short = AuditRow.at_least("a", "c", 0.5, 0.25, half_width=0.375)
    assert (short.margin, short.status) == (-0.125, "fail")
    assert AuditRow.zero_count("a", "c", 0) == AuditRow(
        "a", "c", 0.0, 0.0, 0.0, "pass")
    assert AuditRow.zero_count("a", "c", 2).status == "fail"
    assert AuditRow.zero_count("a", "c", 2, nonzero="indeterminate").status \
        == "indeterminate"


def test_report_round_trip_and_verdicts():
    rows = [AuditRow("a", "c1", 1.0, 2.0, 1.0, "pass"),
            AuditRow("b", "c2", 3.0, 2.0, -1.0, "fail"),
            AuditRow("c", "c3", 2.0, 2.0, 0.0, "indeterminate")]
    report = AuditReport({"config_hash": "h"}, {
        "construction_audits": rows[:1], "budget_ledgers": rows[1:2],
        "porosity": rows[2:]})
    assert report.verdicts == {"overall": "fail", "pass": 1, "fail": 1,
                               "indeterminate": 1}
    assert list(report.sections) == list(SECTIONS)
    assert report.sections["analysis_audits"] == []
    back = AuditReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()
    csv = report.to_csv().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 4

    clean = AuditReport({}, {"construction_audits": rows[:1]})
    assert clean.verdicts["overall"] == "pass"
    mixed = AuditReport({}, {"construction_audits": rows[:1],
                             "porosity": rows[2:]})
    assert mixed.verdicts["overall"] == "indeterminate"
    merged = AuditReport.merge([report, mixed])
    assert merged.config == report.config
    assert [r.id for r in merged.rows()] == ["a", "a", "b", "c", "c"]


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        AuditReport.from_json('{"format": "audit-report/9"}')


def test_report_rejects_unknown_section():
    with pytest.raises(ValueError, match="unknown report sections"):
        AuditReport({}, {"porosity_audits": []})


def test_report_rejects_verdicts_that_disagree_with_its_rows():
    row = AuditRow("a", "c", 3.0, 2.0, -1.0, "fail")
    doc = json.loads(AuditReport({}, {"porosity": [row]}).to_json())
    doc["verdicts"] = {"overall": "pass", "pass": 1, "fail": 0,
                       "indeterminate": 0}
    with pytest.raises(ValueError, match="verdicts disagree"):
        AuditReport.from_json(json.dumps(doc))


def test_analysis_suite_all_pass():
    rows = analysis_suite(seed=0)
    assert len(rows) == 10
    assert all(r.status == "pass" for r in rows)
    assert all(r.id.startswith("analysis/") for r in rows)
    slugs = {r.id.split("/", 1)[1] for r in rows}
    assert {"mollifier-mass", "affine-fix", "cutoff-slope", "blend-gradient",
            "flatten-identity", "sobolev-ratio", "area-ratio"} <= slugs
