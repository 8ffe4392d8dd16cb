"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Tolerances are pinned as module constants next to each criterion.  The
expensive corpus sweeps (full budget ledgers, hole-mass checks) run once
in session fixtures and are shared.  Run with ``pytest -s`` to see every
verdict line; a plain run prints them only for failures.
"""
import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_contains_any, brute_members, brute_pairs,
                     dense_grid_union_oracle, full_hit_scan,
                     grid_union_oracle)
from porous import (AffinePlane, Ball, ScalarField,
                    alpha_relaxed, budget,
                    build_family, bump_field, family_invariant_audit,
                    hole_intersection_mass, ledger_rows,
                    make_mollifier, mollifier_mass, mollify,
                    porosity_witness, sample_truncated_P,
                    strict_deficit_bound, substream, truncated_P,
                    unit_ball_volume)
from porous.analysis import (BUMP_SLOPE_SUP, area_lower_bound_check,
                             flatten_residual, sobolev_ratio)
from porous.bounds import DBOUND_C, LEDGER_C, K_constant
from porous.cli import main
from porous.geometry import BallIndex
from porous.sampling import SamplingBudget, sample_shell, stratified_ball_mean
from porous.verification import (FLATTEN_C, analysis_suite,
                                 coverage_deficit, smooth_over_subfamily)

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "demos" / "config" / "demo.json"
DEMO_CORPUS = ROOT / "demos" / "config" / "corpus.json"

W3 = unit_ball_volume(3)
WINDOW = Ball(np.full(3, 0.5), 0.25)

# pinned tolerances, one block per criterion
AC1_WALL_LIMIT_S = 600.0
AC1_FLOOR_APPROX = 1.85e-2
AC2_STRICT_APPROX = 8.18e-3
AC3_POINTS = 1000
AC3_RATIO_FLOOR = 1.0 / math.sqrt(10.0) - 1e-6
AC4_MASS_TOL = 1e-6
AC4_AFFINE_TOL = 1e-8
AC4_DRIFT_FIELDS = 100
AC4_DRIFT_SLACK = 1e-9          # float-rounding guard on the <= eps bound
AC4_IDENTITY_TOL = 1e-6
AC4_SOBOLEV_STABILITY = 0.05
AC4_AREA_HEIGHTS = (0.1, 0.05, 0.025)
AC4_AREA_SPREAD = 0.20
AC5_UBOUND_SLACK = 1e-15
AC6_CAP_FACTOR = math.sqrt(1.0 + (1.0 / 64.0) ** 2)
AC7_FAMILIES = 20
AC7_GRID_RES = 256
AC7_PROBES = 10_000


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _flat_patch() -> ScalarField:
    return ScalarField(
        domain=WINDOW, fn=lambda pts: np.zeros(len(np.atleast_2d(pts))),
        grad_fn=lambda pts: np.zeros_like(np.atleast_2d(pts)),
        grad_bound=0.0, label="flat", c1_bound=0.0)


@pytest.fixture(scope="session")
def mass_checks(demo_family, corpus_fields):
    def one(g):
        return hole_intersection_mass(g, demo_family)

    with ThreadPoolExecutor(max_workers=8) as pool:
        checks = list(pool.map(one, corpus_fields))
    return list(zip(corpus_fields, checks))


# ---------------------------------------------------------------------------
# 1. construction invariants on the demo build
# ---------------------------------------------------------------------------

def test_ac1_construction_invariants(demo_config):
    b = demo_config.build
    assert (b.n, b.s, b.E, b.depth) == (3, 0.25, 1.5, 2)
    assert b.stop_fractions[:2] == (0.25, 0.125)

    t0 = time.perf_counter()
    family, _ = build_family(b)
    rows = family_invariant_audit(family, demo_config.audit)
    elapsed = time.perf_counter() - t0

    floor = (1.0 / (2.0 * b.E)) ** b.n / 2.0
    pair_rows = [r for r in rows if r.check == "packing-pairs"]
    decay_rows = [r for r in rows if r.check == "packing-decay"]
    floor_rows = [r for r in rows if r.check == "packing-floor"]
    ok = (abs(floor - AC1_FLOOR_APPROX) < 5e-4
          and len(pair_rows) == b.depth and len(decay_rows) == 1
          and len(floor_rows) > 0
          and all(r.status == "pass" for r in rows)
          and all(r.bound == floor for r in floor_rows)
          and elapsed <= AC1_WALL_LIMIT_S)
    _verdict("AC1 construction-invariants", ok,
             f"{len(family.ks)} holes, {len(floor_rows)} levels >= "
             f"{floor:.4g}, build+audit {elapsed:.1f}s <= "
             f"{AC1_WALL_LIMIT_S:.0f}s")


# ---------------------------------------------------------------------------
# 2. plane-coverage deficit
# ---------------------------------------------------------------------------

def test_ac2_plane_cover_deficit(demo_family, demo_config):
    deficits = [
        coverage_deficit(demo_family, k=k,
                         stop_fraction=demo_config.build.stop_fractions[k - 1],
                         settings=demo_config.audit).row
        for k in range(1, demo_family.depth + 1)]
    relaxed_ok = all(d.measured <= d.bound for d in deficits)

    strict = strict_deficit_bound(3, 0.25, 1)
    arithmetic_ok = (strict == W3 * 0.25 ** 3 / 2 ** 3
                     and abs(strict - AC2_STRICT_APPROX) < 5e-6)
    worst = max(d.measured / d.bound for d in deficits)
    _verdict("AC2 plane-cover-deficit", relaxed_ok and arithmetic_ok,
             f"worst upper-CI/bound {worst:.3f}, strict instance "
             f"{strict:.6g} ~ {AC2_STRICT_APPROX:g}")


# ---------------------------------------------------------------------------
# 3. porosity witnesses on truncated P
# ---------------------------------------------------------------------------

def test_ac3_porosity_witnesses(demo_family):
    points = sample_truncated_P(truncated_P(demo_family), AC3_POINTS, seed=0)
    worst = math.inf
    for point in points:
        worst = min(worst, porosity_witness(point, demo_family)[1])
    ok = len(points) == AC3_POINTS and worst >= AC3_RATIO_FLOOR
    _verdict("AC3 porosity-witnesses", ok,
             f"{AC3_POINTS} points, worst ratio {worst:.6f} >= "
             f"{AC3_RATIO_FLOOR:.6f}")


# ---------------------------------------------------------------------------
# 4. smoothing and inequality toolkit
# ---------------------------------------------------------------------------

def _cone_field(h, ball):
    def fn(pts):
        rho = np.linalg.norm(np.atleast_2d(pts) - ball.center, axis=1)
        return np.maximum(h - rho, 0.0)

    def grad(pts):
        pts = np.atleast_2d(pts)
        delta = pts - ball.center
        rho = np.linalg.norm(delta, axis=1)
        out = np.zeros_like(pts)
        live = (rho > 1e-300) & (rho < h)
        out[live] = -delta[live] / rho[live, None]
        return out

    return ScalarField(domain=ball, fn=fn, grad_fn=grad, grad_bound=1.0)


def test_ac4_analytic_suite():
    checks = {}

    # kernel mass to 1e-6, independent radial quadrature
    checks["mass"] = all(
        abs(mollifier_mass(make_mollifier(n), eps) - 1.0) <= AC4_MASS_TOL
        for n in (3, 4) for eps in (1.0, 0.05))

    # representative one-instance suite: affine fix to 1e-8, cutoff slope,
    # blend gradient, flatten identity to 1e-6 all reduced to rows
    rows = {r.id.split("/", 1)[1]: r for r in analysis_suite(seed=0)}
    checks["suite"] = all(r.status == "pass" for r in rows.values())
    checks["affine"] = rows["affine-fix"].bound == AC4_AFFINE_TOL
    checks["identity"] = rows["flatten-identity"].bound == AC4_IDENTITY_TOL

    # |g^eps - g| <= eps over a 100-field unit-gradient corpus
    drift_ok = True
    worst_drift = 0.0
    for i in range(AC4_DRIFT_FIELDS):
        rs = substream(0, "ac4-drift", i)
        center = np.full(3, 0.5) + rs.uniform(-0.05, 0.05, 3)
        radius = 0.06 + 0.14 * rs.random()
        g = bump_field(center, radius, radius / BUMP_SLOPE_SUP)
        eps = radius * (0.05 + 0.25 * rs.random())
        smooth = mollify(g, eps)
        probes = np.vstack([
            sample_shell(substream(1, "ac4-probe", i), center, 0.0,
                         radius - eps, 200), center[None]])
        drift = float(np.abs(smooth.values(probes) - g.values(probes)).max())
        worst_drift = max(worst_drift, drift / eps)
        drift_ok &= drift <= eps * (1.0 + AC4_DRIFT_SLACK)
    checks["drift"] = drift_ok

    # residual scale C across an eps sweep, against the pinned ceiling
    plane = AffinePlane(index=1, gradient=np.array([0.4, 0.0, 0.0]),
                        offset=0.0, anchor=WINDOW.center)
    b = Ball(WINDOW.center, 0.2)
    flat_c = 0.0
    identity_ok = True
    for eps in (0.02, 0.01, 0.005):
        wobble = bump_field(WINDOW.center, 0.8 * b.radius,
                            0.9 * eps * b.radius)

        def fn(pts, w=wobble):
            return plane.heights(pts) + w.values(pts)

        def grad(pts, w=wobble):
            out = np.broadcast_to(plane.gradient,
                                  np.atleast_2d(pts).shape).copy()
            return out + w.gradients(pts)

        g = ScalarField(domain=b, fn=fn, grad_fn=grad,
                        grad_bound=plane.slope + wobble.grad_bound)
        check = flatten_residual(g, plane, b, eps)
        identity_ok &= check.identity_gap <= AC4_IDENTITY_TOL
        flat_c = max(flat_c, check.bound_scale)
    checks["flatten"] = identity_ok and flat_c <= FLATTEN_C

    # critical exponent 6, ratio stable to 5% under resolution doubling
    sobolev_ok = True
    for i, width in enumerate((0.10, 0.14, 0.18)):
        g = bump_field(WINDOW.center, width, width / BUMP_SLOPE_SUP)
        coarse = sobolev_ratio(g, WINDOW, alpha=0.3, seed=i,
                               budget=SamplingBudget(32, 512))
        fine = sobolev_ratio(g, WINDOW, alpha=0.3, seed=i,
                             budget=SamplingBudget(32, 1024))
        sobolev_ok &= coarse.exponent == 6.0 and math.isfinite(coarse.ratio)
        sobolev_ok &= abs(fine.ratio - coarse.ratio) \
            <= AC4_SOBOLEV_STABILITY * coarse.ratio
    checks["sobolev"] = sobolev_ok

    # peak-area ratio constant to 20% across the pinned h dilation
    ratios = []
    for seed, h in enumerate(AC4_AREA_HEIGHTS):
        ball = Ball(WINDOW.center, 4.0 * h)
        check = area_lower_bound_check(_cone_field(h, ball), ball, h,
                                       seed=seed,
                                       budget=SamplingBudget(32, 2048))
        ratios.append(check.ratio)
    mid = sorted(ratios)[1]
    checks["area"] = all(abs(r - mid) <= AC4_AREA_SPREAD * mid
                         for r in ratios)

    bad = [name for name, ok in checks.items() if not ok]
    _verdict("AC4 analytic-suite", not bad,
             f"failing: {bad or 'none'}, drift sup/eps {worst_drift:.3f}, "
             f"flatten C {flat_c:.3f} <= {FLATTEN_C:g}, area ratios "
             + "/".join(f"{r:.2f}" for r in ratios))


# ---------------------------------------------------------------------------
# 5. staged budget over the 50-field corpus
# ---------------------------------------------------------------------------

def test_ac5_budget_corpus(demo_family, corpus_fields, corpus_ledgers):
    errors = {src: led for src, led in corpus_ledgers.items()
              if not hasattr(led, "stages")}
    ledgers = [led for led in corpus_ledgers.values()
               if hasattr(led, "stages")]

    corpus_ok = (len(corpus_fields) == 50
                 and all(e.c1_bound <= 1.0 / 64.0 + 1e-12
                         for e in corpus_fields))
    checks = [({r.check: r for r in st.rows}, st)
              for led in ledgers for st in led.stages]
    ubound_ok = all(
        rows["u-mass"].status == "pass" and rows["u-mass"].measured
        <= demo_family.epsilons[st.k - 1] + AC5_UBOUND_SLACK
        for rows, st in checks)
    dbound_ok = all(rows["d-energy"].status == "pass"
                    and rows["d-energy"].bound == DBOUND_C
                    for rows, _ in checks)
    disjoint_ok = all(st.violations == () for _, st in checks)
    global_c_ok = all(led.verdict.bound == pytest.approx(
                          LEDGER_C * (max(led.energy.lower(), 0.0)
                                      + sum(demo_family.epsilons[
                                          :demo_family.depth])))
                      and led.verdict.status == "pass"
                      and led.status == "pass" for led in ledgers)

    zero = budget(_flat_patch(), demo_family)
    zero_ok = zero.verdict.measured == 0.0 and zero.status == "pass"

    worst_c = max(led.c_empirical for led in ledgers)
    worst_d = max((rows["d-energy"].measured for rows, _ in checks),
                  default=0.0)
    ok = (not errors and corpus_ok and ubound_ok and dbound_ok
          and disjoint_ok and global_c_ok and zero_ok)
    _verdict("AC5 budget-corpus", ok,
             f"{len(ledgers)}/50 ledgers, errors {sorted(errors) or 'none'}, "
             f"global C {LEDGER_C:g} (empirical max {worst_c:.1f}), dbound C "
             f"{DBOUND_C:g} (max {worst_d:.0f}), flat-field mass "
             f"{zero.verdict.measured}")


# ---------------------------------------------------------------------------
# 6. graph-with-holes mass caps
# ---------------------------------------------------------------------------

def test_ac6_hole_mass(demo_family, demo_config, mass_checks):
    cap_factor = math.sqrt(1.0 + demo_family.r ** 2)
    assert cap_factor == AC6_CAP_FACTOR
    cap_ok = all(check.row.status == "pass" and check.row.bound
                 == pytest.approx(cap_factor * check.hit_mass)
                 for _, check in mass_checks)

    quarter = alpha_relaxed(demo_family.n, demo_family.s,
                            demo_config.build.stop_fractions[0]) / 4.0
    plane_checks = [check for g, check in mass_checks
                    if g.label.startswith("plane[")]
    plane_ok = (len(plane_checks) == 16
                and all(c.mass.upper() < quarter for c in plane_checks))
    worst_plane = max(c.mass.upper() for c in plane_checks)
    _verdict("AC6 hole-mass", cap_ok and plane_ok,
             f"{len(mass_checks)} fields capped, worst plane mass "
             f"{worst_plane:.3e} < alpha'/4 = {quarter:.3e}")


# ---------------------------------------------------------------------------
# 7. oracle equivalences
# ---------------------------------------------------------------------------

def _ac7_union_family(fi):
    rng = substream(7, "ac7-union", fi)
    count = 8 + int(rng.integers(0, 12))
    return [Ball(rng.uniform(0.25, 0.75, 3),
                 float(np.exp(rng.uniform(math.log(0.02), math.log(0.1)))))
            for _ in range(count)]


def test_ac7_union_grid_oracle_matches_dense_scan():
    balls = _ac7_union_family(0)
    # the AC7 region, and one that cuts through the balls so that the
    # region's own boundary decides some cells
    for region in (Ball(np.full(3, 0.5), 0.8), Ball(np.full(3, 0.5), 0.2)):
        assert grid_union_oracle(balls, region, 64) == \
            dense_grid_union_oracle(balls, region, 64)


def _replay_ledger(g, family, ledger):
    """Recompute every stage's hit set and mass: the exhaustive scan of
    ``oracles``, and the public API for the smoothing."""
    current = g
    total = 0.0
    for k in range(1, family.depth + 1):
        st = ledger.stages[k - 1]
        scan = full_hit_scan(current, family, family.stage_ids(k),
                             K_constant(k), prefilter=False)
        if tuple(int(i) for i in scan.hit_ids) != st.classification.hit_ids:
            return False, f"{g.label} stage {k} hit set differs"
        mass = float(np.sum(W3 * family.ts[scan.hit_ids] ** family.n))
        if mass != st.hit_mass:
            return False, f"{g.label} stage {k} mass differs"
        total += mass
        if k < family.depth:
            eps_next = float(family.epsilons[k])
            tol = eps_next * float(family.stage_radii[k - 1])
            smoothed = smooth_over_subfamily(
                current, family, st.classification.d_ids, eps_next,
                tol, seed=0)
            grad_cap = 1.0 / 32.0 - 3.0 * sum(family.epsilons[:k])
            drift = next(r.measured for r in st.rows
                         if r.check == "smoothing-drift")
            current = dataclasses.replace(
                smoothed, grad_bound=min(smoothed.grad_bound, grad_cap),
                c1_bound=max(current.c1_bound + drift, grad_cap))
    if total != ledger.verdict.measured:
        return False, f"{g.label} total mass differs"
    return True, f"{g.label} {total:.6e}"


def test_ac7_oracle_equivalences(demo_family, corpus_fields,
                                 corpus_ledgers):
    checks = {}

    # the sampled union measure (the stratified mean of the ball index's
    # membership) against a 256^3 counting grid on 20 random families
    union_ok = True
    region = Ball(np.full(3, 0.5), 0.8)
    for fi in range(AC7_FAMILIES):
        balls = _ac7_union_family(fi)
        index = BallIndex(np.array([b.center for b in balls]),
                          np.array([b.radius for b in balls]))
        mean, hw, _ = stratified_ball_mean(
            lambda pts: index.contains_any(pts).astype(float),
            region.center, region.radius, 0, SamplingBudget(32, 512),
            key=("union",))
        oracle, err = grid_union_oracle(balls, region, AC7_GRID_RES)
        union_ok &= abs(mean * region.volume() - oracle) \
            <= hw * region.volume() + err
    checks["union-grid"] = union_ok

    # ball index against the brute-force scan, exact, 10^4 probes
    rng = substream(7, "ac7-index")
    centers = rng.uniform(-10.0, 10.0, size=(400, 3))
    radii = np.exp(rng.uniform(math.log(0.01), math.log(2.0), size=400))
    index = BallIndex(centers, radii)
    probes = rng.uniform(-11.0, 11.0, size=(AC7_PROBES, 3))
    index_ok = np.array_equal(index.contains_any(probes),
                              brute_contains_any(probes, centers, radii))
    index_ok &= all(np.array_equal(a, b) for a, b in
                    zip(index.pairs(), brute_pairs(centers, radii)))
    index_ok &= all(np.array_equal(a, b) for a, b in
                    zip(index.members(probes),
                        brute_members(probes, centers, radii)))
    checks["index-scan"] = index_ok

    # ledger hit masses replayed by an exhaustive unprefiltered scan
    by_source = {e.label: e for e in corpus_fields}
    replays = []
    for source in ("plane[0]", "plane[12]", "bump[0]"):
        ok, note = _replay_ledger(by_source[source], demo_family,
                                  corpus_ledgers[source])
        replays.append((ok, note))
    checks["budget-replay"] = all(ok for ok, _ in replays)

    bad = [name for name, ok in checks.items() if not ok]
    _verdict("AC7 oracle-equivalences", not bad,
             f"failing: {bad or 'none'}, "
             f"replayed {', '.join(note for _, note in replays)}")


# ---------------------------------------------------------------------------
# 8. byte-level determinism
# ---------------------------------------------------------------------------

def test_ac8_determinism(tmp_path_factory, demo_family, corpus_fields,
                         corpus_ledgers):
    base = tmp_path_factory.mktemp("ac8")
    which = "construction,cover,porosity,analysis,holes-mass"
    outs = []
    for run in (1, 2):
        out = base / f"run{run}"
        assert main(["build", "--config", str(DEMO_CONFIG),
                     "--out", str(out / "build")]) == 0
        assert main(["audit", "--config", str(DEMO_CONFIG),
                     "--family", str(out / "build" / "family.jsonl"),
                     "--corpus", str(DEMO_CORPUS), "--which", which,
                     "--out", str(out / "audit")]) == 0
        outs.append(out)

    tracked = [("build", "family.jsonl"), ("build", "build_report.json"),
               ("build", "build_report.csv"), ("build", "build_log.json"),
               ("audit", "audit_report.json"), ("audit", "audit_report.csv")]
    diffs = [f"{sub}/{name}" for sub, name in tracked
             if (outs[0] / sub / name).read_bytes()
             != (outs[1] / sub / name).read_bytes()]

    # the threaded session sweep and a fresh single-threaded call agree
    again = budget(next(g for g in corpus_fields if g.label == "plane[0]"),
                   demo_family)
    rows_equal = ([r.as_dict() for r in ledger_rows(again)]
                  == [r.as_dict()
                      for r in ledger_rows(corpus_ledgers["plane[0]"])])

    sizes = ", ".join(
        f"{name} {len((outs[0] / sub / name).read_bytes())}B"
        for sub, name in tracked[:2])
    _verdict("AC8 determinism", not diffs and rows_equal,
             f"byte-identical: {len(tracked) - len(diffs)}/{len(tracked)} "
             f"({sizes}), ledger re-run equal: {rows_equal}")
