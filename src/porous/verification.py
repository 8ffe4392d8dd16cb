"""Audit engine for built hole families against C1 graph fields.

The checks come in four groups:

* family invariants — exact pairwise disjoint-or-nested audits of the
  enlarged balls, radius decay, and replayed per-level coverage floors;
* per-field accounting — hit detection of holes by a graph, residue
  regions above the quarter-radius threshold, the u/d split of hit holes,
  the exact pairwise disjointness of the hit holes' primed balls (which
  holds each stage's residue regions apart), and the staged mass budget
  that bounds hit cross-sections by the field's Dirichlet energy plus
  the epsilon string;
* coverage and porosity — base-plane coverage deficits of the truncation
  unions, porosity witnesses for sampled points of the residual set, and
  the total hole mass met by a surface;
* reporting — a deterministic JSON report with a flat CSV companion.

Sampled verdicts always carry 99% confidence half-widths and compare the
conservative end of the interval against its bound; straddles are
escalated once, then reported as indeterminate rather than assigned.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (BUMP_SLOPE_SUP, area_lower_bound_check, blend,
                       blend_disjoint, bump_field, flatten_residual,
                       make_cutoff, make_mollifier, mollifier_mass, mollify,
                       smoothed_gradient_check, sobolev_ratio)
from .bounds import (BUDGET_GRAD_CAP, BUDGET_TOL, DBOUND_C, RESIDUE_GRAD_CAP,
                     K_constant, ball_floor, deficit_bound, drift_bound,
                     grad_cap, hole_mass_cap, ledger_ceiling, porosity_floor,
                     u_mass_bound)
from .construction import (HoleFamily, StageSpace, assemble_H, assemble_Pk,
                           footprint_factor)
from .errors import (AuditFailure, NeedsMoreSamples, PreconditionError,
                     conform_fields, real, setting)
from .geometry import (REACH_SLACK, AffinePlane, Ball, BallIndex,
                       MeasureEstimate, ScalarField, contains_any,
                       displacements, norms, run_starts, sq_norms)
from .sampling import (SEED_MAX, SamplingBudget, bernoulli_half_width,
                       sample_shell, stratified_ball_integral,
                       stratified_ball_integrals, substream)
from .surfaces import _plane_patch, graph_measure_in, unit_lattice

# decision margins: the scan's declared safety band, and the absolute slack
# of every exact ball check (window containment, overlap, nesting)
HIT_MARGIN = 1e-6
GEOMETRY_TOL = 1e-9
HIT_LATTICE = 7
REFINE_ITERS = 40
REFINE_SHRINK = 0.65
HIT_SCAN_BLOCK = 1 << 20    # lattice probes per batched field evaluation


@dataclass(frozen=True)
class AuditSettings:
    """Seed and sample sizes of the audits, each settable in a config's
    ``audit`` section; the verdict bounds are constants of
    ``porous.bounds``."""

    seed: int = setting(0, type="integer", minimum=0, maximum=SEED_MAX)
    budget: SamplingBudget = SamplingBudget(32, 128)
    dbound_budget: SamplingBudget = SamplingBudget(8, 32)
    # each measured up to 2^16 under a 1 GiB address-space cap, on the
    # demo config: its porosity audit takes 1.0 s of CPU and 63 MB, and
    # its build, whose construction audit replays the floors, 0.6 s and
    # 78 MB
    porosity_samples: int = setting(1000, type="integer", minimum=1,
                                    maximum=2**16)
    floor_samples: int = setting(4096, type="integer", minimum=64,
                                 maximum=2**16)

    def __post_init__(self) -> None:
        conform_fields(self)


# ---------------------------------------------------------------------------
# hit detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HitScan:
    """Outcome of a graph-against-holes sweep at one enlargement constant."""

    ids: np.ndarray
    hit: np.ndarray          # bool per id
    # a hit: phi at the witnessing probe; a prefiltered miss: the
    # certified lower bound; a scanned miss: the descent's minimum
    min_gap: np.ndarray
    prefiltered: np.ndarray  # decided by the certified miss bound alone

    @property
    def hit_ids(self) -> np.ndarray:
        return self.ids[self.hit]


def graph_hit_scan(g: ScalarField, family: HoleFamily, ids: np.ndarray,
                   K: float) -> HitScan:
    """Decide G(g) ∩ K·B ≠ ∅ for each listed hole.

    With phi(y) = |(y, g(y)) - centre| - K t over the base disc, a hole is
    hit once some probe has phi <= margin.  Each hole is decided by the
    first of four steps that settles it, and the field is evaluated only
    for holes still open:

    1. the prefilter certificate: the vertical gap v0 at the base centre
       gives a miss when v0 / sqrt(1+rho^2) - Kt > margin (rho the
       gradient bound), a certified miss that no probe could contradict;
    2. the centre witness: the centre is the lattice's zero probe, where
       phi = v0 - Kt;
    3. the probe lattice;
    4. lockstep pattern descent from the lattice's best probe; a hole
       leaves the descent in the round a probe witnesses it, and each
       hole's rounds depend on its own probes only.

    A hit's ``min_gap`` is phi at its witnessing probe.  A miss's is the
    prefilter's certified lower bound, or for a scanned miss the minimum
    phi after all descent rounds.  Only the prefiltered miss carries a
    certificate: a scanned miss found no probe within the margin, which
    is a local search, not a proof that the graph avoids the hole.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = family.n
    m = len(ids)
    hit = np.zeros(m, dtype=bool)
    gap = np.full(m, np.inf)
    pre = np.zeros(m, dtype=bool)
    if m == 0:
        return HitScan(ids, hit, gap, pre)
    x = family.base_centers[ids]
    t = family.ts[ids]
    h = family.lifted_centers[ids][:, n]
    rho = float(g.grad_bound)
    v0 = np.abs(g.values(x) - h)
    lower = v0 / math.sqrt(1.0 + rho * rho) - K * t
    pre = lower > HIT_MARGIN
    gap[pre] = lower[pre]
    centre = v0 - K * t
    hit = ~pre & (centre <= HIT_MARGIN)
    gap[hit] = centre[hit]
    todo = np.flatnonzero(~pre & ~hit)
    if len(todo) == 0:
        return HitScan(ids, hit, gap, pre)

    # the axis lattice of [-1,1]^n inside the unit ball; includes 0
    offs = unit_lattice(n, HIT_LATTICE) * 2.0 - 1.0
    offs = offs[sq_norms(offs) <= 1.0 + 1e-12]
    per = max(1, HIT_SCAN_BLOCK // len(offs))
    eye = np.eye(n)
    steps = np.vstack([eye, -eye])

    def phi(holes: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """phi at the probes (len(holes), q, n) of the listed holes."""
        vals = g.values(probes.reshape(-1, n)).reshape(len(holes), -1)
        horiz = norms(displacements(probes, x[holes, None, :]))
        return np.hypot(horiz, vals - h[holes, None]) - K * t[holes, None]

    for lo in range(0, len(todo), per):
        sub = todo[lo:lo + per]
        radius = K * t[sub]
        probes = x[sub, None, :] + radius[:, None, None] * offs[None]
        at_lattice = phi(sub, probes)
        best_phi = at_lattice.min(axis=1)
        best = probes[np.arange(len(sub)), at_lattice.argmin(axis=1)]
        step = radius * (2.0 / (HIT_LATTICE - 1))
        live = np.flatnonzero(best_phi > HIT_MARGIN)
        for _ in range(REFINE_ITERS):
            if len(live) == 0:
                break
            xl, rl = x[sub[live], None, :], radius[live, None]
            cand = best[live, None, :] + step[live, None, None] * steps[None]
            rel = displacements(cand, xl)
            nrm = norms(rel)
            over = nrm > rl
            if over.any():   # project wanderers back onto the probe disc
                proj = xl + rel * (rl / np.maximum(nrm, 1e-300))[:, :, None]
                cand = np.where(over[:, :, None], proj, cand)
            cphi = phi(sub[live], cand)
            cbest = cphi.min(axis=1)
            better = cbest < best_phi[live]
            pick = cphi.argmin(axis=1)
            best[live[better]] = cand[better, pick[better]]
            best_phi[live[better]] = cbest[better]
            step = step * REFINE_SHRINK
            live = live[best_phi[live] > HIT_MARGIN]
        gap[sub] = best_phi
        hit[sub] = best_phi <= HIT_MARGIN
    return HitScan(ids, hit, gap, pre)


# ---------------------------------------------------------------------------
# residue regions and classification
# ---------------------------------------------------------------------------

def _require_c1(g: ScalarField, cap: float, what: str) -> None:
    """Raise ``PreconditionError`` when the field carries no C1 bound or
    its bound exceeds ``cap`` (by more than 1e-12)."""
    if g.c1_bound is None:
        raise PreconditionError(
            f"field {g.label!r} carries no C1 bound for the {what}",
            c1_bound=None, cap=cap)
    if g.c1_bound > cap + 1e-12:
        raise PreconditionError(
            f"field {g.label!r} exceeds the {what} "
            f"({g.c1_bound:.4g} > {cap:.4g})", c1_bound=g.c1_bound, cap=cap)


def _residue_balls(family: HoleFamily, ids: np.ndarray,
                   g: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The primed radii E·t and the t/4 thresholds of the holes' residue
    regions.

    The field must lie under the residue C1 ceiling and every primed ball
    inside the window; the first hole in order whose ball leaves it
    raises ``AuditFailure``.
    """
    _require_c1(g, RESIDUE_GRAD_CAP, "C1 ceiling for residue accounting")
    slack = family.window_slack[ids]
    out = np.flatnonzero(slack < -GEOMETRY_TOL)
    if len(out):
        hole_id, overhang = int(ids[out[0]]), float(-slack[out[0]])
        raise AuditFailure(
            f"primed ball of hole {hole_id} leaves the window by "
            f"{overhang:.3e}", hole_id=hole_id, overhang=overhang)
    return family.primed_radii[ids], family.ts[ids] / 4.0


def _of_stage(family: HoleFamily, k: int, ids: Sequence[int]) -> np.ndarray:
    """The holes as an id array; the first not of stage k raises."""
    ids = np.asarray(ids, dtype=np.int64)
    other = ids[family.ks[ids] != k]
    if len(other):
        raise ValueError(f"hole {int(other[0])} is of stage "
                         f"{int(family.ks[other[0]])}, not stage {k}")
    return ids


def _residue_integrals(family: HoleFamily, ids: Sequence[int],
                       g: ScalarField, plane: AffinePlane,
                       budget: SamplingBudget, seed: int, keys: list,
                       weight: Optional[Callable] = None
                       ) -> list[MeasureEstimate]:
    """Sampled ∫ of ``weight`` (1 when absent) over each hole's residue
    region, where the field leaves its t/4 band around the plane, all
    holes in one ``stratified_ball_means`` call: ball ``b`` draws from the
    substreams of ``keys[b]``.  ``weight`` maps the field's gradients at
    the points to their weights; the field's values and gradients come
    from one ``values_and_gradients`` pass."""
    ids = np.asarray(ids, dtype=np.int64)
    if not len(ids):
        return []
    radii, thresholds = _residue_balls(family, ids, g)

    def integrand(pts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        vals, grads = g.values_and_gradients(pts)
        inside = np.abs(vals - plane.heights(pts)) > thresholds[owner]
        return inside if weight is None else inside * weight(grads)

    return stratified_ball_integrals(integrand, family.base_centers[ids],
                                     radii, seed, budget, keys)


def residue_energies(family: HoleFamily, k: int, hole_ids: Sequence[int],
                     g: ScalarField, budget: SamplingBudget,
                     seed: int = 0) -> list[MeasureEstimate]:
    """Sampled ∫ over each stage-k hole's residue region of
    |grad(g - plane)|^2.

    Each (hole, stratum) keeps its own substream, so the estimates do not
    depend on which holes are listed together; the first steep-field or
    overhanging hole raises before anything is sampled.
    """
    hole_ids = _of_stage(family, k, hole_ids).tolist()
    plane = family.plane(k)
    grad_a = np.asarray(plane.gradient, dtype=float)

    def grad_sq(grads: np.ndarray) -> np.ndarray:
        return sq_norms(displacements(grads, grad_a))

    return _residue_integrals(family, hole_ids, g, plane, budget, seed,
                              [("residue-energy", h) for h in hole_ids],
                              grad_sq)


def residue_energy(family: HoleFamily, hole_id: int, g: ScalarField,
                   budget: SamplingBudget, seed: int = 0) -> MeasureEstimate:
    """Sampled ∫ over the residue region of |grad(g - plane)|^2."""
    return residue_energies(family, int(family.ks[hole_id]), [hole_id],
                            g, budget, seed)[0]


@dataclass(frozen=True)
class HoleClassification:
    """The u/d split of the hit holes of one stage."""

    k: int
    hit_ids: tuple
    u_ids: tuple
    d_ids: tuple
    indeterminate_ids: tuple
    escalated_ids: tuple
    residue_measures: dict


def classify_holes(family: HoleFamily, k: int, g: ScalarField,
                   hit_ids: np.ndarray, budget: SamplingBudget,
                   seed: int = 0) -> HoleClassification:
    """Split hit holes by |B| <= eps_k * measure(residue region).

    The comparison uses the conservative end of the confidence interval
    for the winning side; straddles get a single 4x escalation and are
    then reported as indeterminate.  |B| / |B'| is E^-n for every hole,
    so when eps_k * E^n < 1 even a full residue cannot reach |B|: every
    hit hole of the stage is then an algebraic d, with no samples drawn.
    The hit holes must be of stage k; the sampled ones are estimated
    together, then the straddling ones together.
    """
    eps_k = float(family.epsilons[k - 1])
    hit = _of_stage(family, k, hit_ids).tolist()
    plane = family.plane(k)
    vol_b = family.volumes
    algebraic = eps_k * family.E ** family.n < 1.0
    sampled = [] if algebraic else hit
    est = dict(zip(sampled, _residue_integrals(
        family, sampled, g, plane, budget, seed,
        [("residue", h) for h in sampled])))

    def side(h: int) -> Optional[str]:
        if vol_b[h] <= eps_k * est[h].lower():
            return "u"
        return "d" if vol_b[h] > eps_k * est[h].upper() else None

    escal = [h for h in sampled if side(h) is None]
    est.update(zip(escal, _residue_integrals(
        family, escal, g, plane, budget.scaled(4), seed,
        [("residue", h, "escalated") for h in escal])))
    split: dict = {"u": [], "d": [], None: []}
    for h in hit:
        split["d" if algebraic else side(h)].append(h)
    return HoleClassification(
        k=k, hit_ids=tuple(hit), u_ids=tuple(split["u"]),
        d_ids=tuple(split["d"]), indeterminate_ids=tuple(split[None]),
        escalated_ids=tuple(escal),
        residue_measures={h: est.get(h) for h in hit})


# ---------------------------------------------------------------------------
# disjointness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisjointnessViolation:
    """Two hit holes of one stage whose primed balls overlap by more than
    ``GEOMETRY_TOL``."""

    pair: tuple
    message: str


def disjointness_audit(family: HoleFamily, k: int, g: ScalarField,
                       hit_ids: np.ndarray
                       ) -> tuple[DisjointnessViolation, ...]:
    """The pairs of stage-k hit holes whose primed balls B(x, E·t) overlap
    by more than ``GEOMETRY_TOL``, one violation per pair.

    Each residue region lies inside its hole's primed ball, so without
    such a pair the stage's residue regions are pairwise disjoint.  The
    check is exact: it draws no samples and evaluates no field.  The
    field and the balls must pass ``_residue_balls``, so a steep field or
    a primed ball leaving the window raises as it does for the residue
    integrals.
    """
    hit_ids = _of_stage(family, k, hit_ids)
    if len(hit_ids) == 0:
        return ()
    x = family.base_centers[hit_ids]
    rad, _ = _residue_balls(family, hit_ids, g)
    index = BallIndex(x, rad)
    first, second, sq = index.pairs()
    gaps = np.sqrt(sq) - (rad[first] + rad[second])
    violations = []
    for i, j, gap in zip(first.tolist(), second.tolist(), gaps.tolist()):
        if gap < -GEOMETRY_TOL:
            pair = (int(hit_ids[i]), int(hit_ids[j]))
            violations.append(DisjointnessViolation(pair, (
                f"stage {k}: primed balls of holes {pair[0]} and "
                f"{pair[1]} overlap by {-gap:.3e}")))
    return tuple(violations)


# ---------------------------------------------------------------------------
# smoothing step
# ---------------------------------------------------------------------------

def smooth_over_subfamily(g: ScalarField, family: HoleFamily,
                          selected: np.ndarray, eps_next: float,
                          match_tol: float, seed: int = 0) -> ScalarField:
    """Blend a mollified copy of the field over each selected primed ball.

    The budget selects a stage's d-holes, whose primed balls its
    disjointness audit certified pairwise disjoint, so every inner field
    mollifies the stage-entry field directly and one flat blend covers
    all balls; with none selected the field is returned as it is.
    Mollifications are cached per radius since levels share radii.
    """
    selected = np.asarray(selected, dtype=np.int64)
    if len(selected) == 0:
        return g
    inners: dict[float, ScalarField] = {}
    pieces = []
    for hole_id in selected:
        t = float(family.ts[hole_id])
        primed_radius = float(family.primed_radii[hole_id])
        if t not in inners:
            sigma = eps_next * primed_radius / 3.0
            inners[t] = mollify(g, sigma, label=f"{g.label}^{sigma:.2e}")
        pieces.append((inners[t], make_cutoff(
            Ball(family.base_centers[hole_id], primed_radius), eps_next)))
    return blend_disjoint(g, pieces, check_budget=128, seed=seed,
                          match_tol=match_tol,
                          label=f"{g.label}~{int(selected[-1])}")


def _ball_probes(family: HoleFamily, selected: np.ndarray) -> np.ndarray:
    """Deterministic per-ball probe sites: centre plus half-radius star."""
    if len(selected) == 0:
        return np.zeros((0, family.n))
    x = family.base_centers[selected]
    rad = family.primed_radii[selected, None, None]
    eye = np.eye(family.n)
    star = np.vstack([np.zeros((1, family.n)), 0.5 * eye, -0.5 * eye])
    return (x[:, None, :] + rad * star[None]).reshape(-1, family.n)


# ---------------------------------------------------------------------------
# the staged budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageLedger:
    k: int
    hit_mass: float
    classification: HoleClassification
    violations: tuple        # DisjointnessViolation per overlapping hit pair
    rows: tuple              # the stage's report rows
    inconsistent_ids: tuple  # hit-consistency failures; () when unsmoothed

    @property
    def status(self) -> str:
        return merged_status(self.rows)


@dataclass(frozen=True)
class BudgetLedger:
    """Mass accounting of one field against the whole family."""

    source: str
    stages: tuple
    energy: MeasureEstimate
    c_empirical: float
    verdict: "AuditRow"      # the summed hit mass against its ceiling

    @property
    def status(self) -> str:
        return merged_status(ledger_rows(self))


def budget(g: ScalarField, family: HoleFamily,
           settings: AuditSettings = AuditSettings()) -> BudgetLedger:
    """Staged hit-mass ledger for one field over every stage.

    Per stage: scan hits at the stage constant, classify them, audit
    residue disjointness, account the u-mass against eps_k and each
    d-hole against its residue Dirichlet energy, then (below the last
    stage) replace the comparison field by its smoothed version over the
    primed balls of the stage's d-holes and check the hit-consistency
    implication.  The disjointness audit certifies those balls pairwise
    disjoint; a stage whose audit records violations fails and is not
    smoothed.  The final verdict bounds the summed hit mass by
    ``ledger_ceiling``, LEDGER_C * (energy + sum eps).  Every check becomes
    a report row here, and the stage and ledger statuses are read from
    those rows.  Each row's bound comes from ``porous.bounds``.
    """
    _require_c1(g, BUDGET_GRAD_CAP, "budget C1 ceiling")
    depth = family.depth
    window = family.window
    seed = settings.seed

    def grad_sq(pts: np.ndarray) -> np.ndarray:
        return sq_norms(g.gradients(pts))

    energy = stratified_ball_integral(grad_sq, window, seed,
                                      settings.budget.scaled(4),
                                      key=("energy", g.label))

    eps = tuple(float(e) for e in family.epsilons[:depth])
    stages: list[StageLedger] = []
    current = g
    total = 0.0
    for k in range(1, depth + 1):
        K_k = K_constant(k)
        ids_k = family.stage_ids(k)
        scan = graph_hit_scan(current, family, ids_k, K_k)
        hit_ids = scan.hit_ids
        hit_mass = float(np.sum(family.volumes[hit_ids]))
        total += hit_mass
        cls = classify_holes(family, k, current, hit_ids, settings.budget,
                             seed)
        violations = disjointness_audit(family, k, current, hit_ids)

        u_sum = float(np.sum(family.volumes[list(cls.u_ids)]))
        dmax = 0.0
        d_ids = np.asarray(cls.d_ids, dtype=np.int64)
        energies = residue_energies(family, k, d_ids, current,
                                    settings.dbound_budget, seed)
        for vol_b, energy_d in zip(family.volumes[d_ids].tolist(), energies):
            den = energy_d.lower()
            dmax = max(dmax, math.inf if den <= 0.0 else vol_b / den)
        base = f"budget/{g.label}/stage-{k}"
        allowance = u_mass_bound(eps, k)
        rows = [AuditRow.at_most(f"{base}/u-mass", "u-mass", u_sum, allowance,
                                 ok=u_sum <= allowance + BUDGET_TOL),
                AuditRow.at_most(f"{base}/d-energy", "d-energy", dmax,
                                 DBOUND_C),
                AuditRow.zero_count(f"{base}/residue-disjoint",
                                    "residue-disjoint", len(violations))]
        if cls.indeterminate_ids:
            rows.append(AuditRow.zero_count(
                f"{base}/classification", "u-d-split",
                len(cls.indeterminate_ids), nonzero="indeterminate"))

        inconsistent = ()
        # the smoothing needs the d-holes' primed balls disjoint; a stage
        # whose audit found overlapping hit holes fails, its smoothing is
        # skipped and the later stages keep the current field
        if k < depth and not violations:
            tol = drift_bound(eps, k, float(family.stage_radii[k - 1]))
            smoothed = smooth_over_subfamily(current, family, d_ids, eps[k],
                                             tol, seed)
            probes = np.vstack([
                sample_shell(substream(seed, "smooth-probe", k),
                             window.center, 0.0, window.radius, 4096),
                _ball_probes(family, d_ids)])
            # the probes hold at least the 4096 window points
            vals, grads = smoothed.values_and_gradients(probes)
            sup_diff = float(np.abs(vals - current.values(probes)).max())
            grad_sup = float(norms(grads).max())
            cap = grad_cap(eps, k)
            # the smoothed field's own declared bound compounds the worst
            # case of every blended ball; the next stage's field takes the
            # stage cap, which the gradient row audits, and a C1 bound that
            # adds the measured drift
            scanned = dataclasses.replace(
                smoothed, grad_bound=min(smoothed.grad_bound, cap),
                c1_bound=max(current.c1_bound + sup_diff, cap),
                label=f"{g.label}|smoothed:{k}")
            # implication: tight hits of the old field stay loose hits of
            # the new one whenever the drift fits the enlargement slack
            K_next = K_constant(k + 1)
            scope = np.flatnonzero(
                (K_k - K_next) * family.ts >= sup_diff - BUDGET_TOL)
            before = graph_hit_scan(current, family, scope, K_next)
            after = graph_hit_scan(scanned, family, scope, K_k)
            inconsistent = tuple(
                int(b) for b in scope[before.hit & ~after.hit])
            rows += [AuditRow.at_most(f"{base}/smoothing-drift",
                                      "smoothing-drift", sup_diff, tol),
                     AuditRow.at_most(f"{base}/smoothing-gradient",
                                      "smoothing-gradient", grad_sup, cap),
                     AuditRow.zero_count(f"{base}/hit-consistency",
                                         "hit-consistency", len(inconsistent))]
            current = scanned
        stages.append(StageLedger(
            k=k, hit_mass=hit_mass, classification=cls,
            violations=violations, rows=tuple(rows),
            inconsistent_ids=inconsistent))

    rhs_base = max(energy.lower(), 0.0) + float(sum(eps))
    c_emp = total / rhs_base if rhs_base > 0 else math.inf
    ceiling = ledger_ceiling(rhs_base)
    return BudgetLedger(
        source=g.label, stages=tuple(stages), energy=energy,
        c_empirical=c_emp, verdict=AuditRow.at_most(
            f"budget/{g.label}/verdict", "budget-total", total, ceiling,
            ok=total <= ceiling + BUDGET_TOL))


# ---------------------------------------------------------------------------
# coverage, porosity, hole mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageDeficit:
    estimate: MeasureEstimate
    row: "AuditRow"          # the deficit's upper end against its bound


def coverage_deficit(family: HoleFamily, k: int, stop_fraction: float,
                     settings: AuditSettings = AuditSettings()
                     ) -> CoverageDeficit:
    """Surface mass of stage k's base plane missed by the stage-k
    truncation union, against ``deficit_bound``."""
    plane = family.plane(k)
    m = plane.index
    g = _plane_patch(plane, family.window, (), f"plane-{m}")
    pk = assemble_Pk(family, k)
    est = graph_measure_in(g, lambda pts: ~pk.contains_any(pts),
                           settings.budget, settings.seed, key=("cover", m, k))
    bound = deficit_bound(family.n, family.s, stop_fraction, plane.slope)
    return CoverageDeficit(estimate=est, row=AuditRow.at_most(
        f"cover/stage-{k}", "plane-cover-deficit", est.upper(), bound))


def porosity_witnesses(points: np.ndarray, family: HoleFamily
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Best hole witnessing porosity at each point of the residual set, as
    two columns: the hole id and its ratio t/|c - p|.

    Among the holes whose L-enlargement contains a point but whose own
    ball does not, the witness maximises radius over centre distance, the
    lowest hole id among equals.  The witness ball is the hole itself, so
    its direction, step and radius follow from the id.  One ``BallIndex``
    query on the enlargements, widened by ``REACH_SLACK``, finds the
    candidates, and the exact tests run on those.  A point with no
    witness, or whose best ratio lies below ``porosity_floor(L)`` (it
    should not have been in the truncation), raises ``AuditFailure``, the
    first such point in order.
    """
    L = family.L
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ts, centers = family.ts, family.lifted_centers
    index = BallIndex(centers, L * ts * (1.0 + REACH_SLACK))
    at, hole, sq = index.members(pts)
    dist = np.sqrt(sq)
    eligible = (dist < L * ts[hole]) & (dist >= ts[hole])
    at, hole, dist = at[eligible], hole[eligible], dist[eligible]
    ratio = ts[hole] / np.maximum(dist, 1e-300)
    # per point, the first pair by descending ratio, then ascending hole
    order = np.lexsort((hole, -ratio, at))
    first = order[run_starts(at[order])]
    holes = np.full(len(pts), -1, dtype=np.int64)
    ratios = np.full(len(pts), -math.inf)
    holes[at[first]], ratios[at[first]] = hole[first], ratio[first]
    floor = porosity_floor(L)
    bad = np.flatnonzero(ratios < floor)
    if len(bad):
        p, r = pts[bad[0]].tolist(), float(ratios[bad[0]])
        if holes[bad[0]] < 0:
            raise AuditFailure(
                f"no hole's enlargement contains the point {p}", point=p)
        raise AuditFailure(
            f"best witness ratio {r:.8f} below 1/L - tol "
            f"({floor:.8f}) at {p}", point=p, ratio=r)
    return holes, ratios


def porosity_witness(point: np.ndarray, family: HoleFamily
                     ) -> tuple[int, float]:
    """``porosity_witnesses`` at one point: its (hole, ratio)."""
    holes, ratios = porosity_witnesses(point, family)
    return int(holes[0]), float(ratios[0])


def porosity_row(points: np.ndarray, family: HoleFamily
                 ) -> tuple["AuditRow", np.ndarray, Optional[str]]:
    """The porosity row: the worst witness ratio at the points against
    ``porosity_floor(L)``, with the ratio column.  When a point has none
    the row fails at measured 0, with no ratios and the failure's message,
    which names the point."""
    floor = porosity_floor(family.L)
    try:
        ratios = porosity_witnesses(points, family)[1]
    except AuditFailure as exc:
        return (AuditRow.at_least("porosity/witness", "porosity-witness",
                                  0.0, floor, ok=False), np.empty(0), str(exc))
    worst = float(ratios.min(initial=math.inf))
    return (AuditRow.at_least("porosity/witness", "porosity-witness", worst,
                              floor), ratios, None)


@dataclass(frozen=True)
class HoleMassCheck:
    mass: MeasureEstimate
    hit_count: int
    hit_mass: float
    row: "AuditRow"          # the mass's upper end against its cap


def hole_intersection_mass(g: ScalarField, family: HoleFamily,
                           settings: AuditSettings = AuditSettings()
                           ) -> HoleMassCheck:
    """Surface mass of the graph inside the raw holes, with its cap.

    The cap, ``hole_mass_cap``, multiplies the summed cross-sections of
    the holes the graph actually meets by the area element bound
    sqrt(1 + r^2).
    """
    _require_c1(g, family.r, "configured C1 class")
    est = graph_measure_in(g, assemble_H(family).contains_any,
                           settings.budget, settings.seed,
                           key=("hole-mass", g.label))
    scan = graph_hit_scan(g, family, np.arange(len(family)), 1.0)
    hit_mass = float(np.sum(family.volumes[scan.hit_ids]))
    cap = hole_mass_cap(family.r, hit_mass)
    return HoleMassCheck(mass=est, hit_count=int(scan.hit.sum()),
                         hit_mass=hit_mass, row=AuditRow.at_most(
                             f"holes-mass/{g.label}", "graph-hole-mass",
                             est.upper(), cap))


# ---------------------------------------------------------------------------
# family invariants (exact + replayed floors)
# ---------------------------------------------------------------------------

def family_invariant_audit(family: HoleFamily,
                           settings: AuditSettings = AuditSettings()
                           ) -> list["AuditRow"]:
    """Exact packing invariants plus replayed per-level coverage floors.

    Covers: primed balls inside the window; within-stage pairwise
    disjoint-or-nested; strict radius decay along levels and across
    stages; and, replayed on fresh samples, each level's covered share of
    the then-uncovered set against ``ball_floor(E, n)``, the floor that
    ``pack_level`` certified.  A level whose then-uncovered set yields too
    few replay samples raises ``NeedsMoreSamples`` naming the stage and
    level.
    """
    rows: list[AuditRow] = []
    window = family.window
    floor = ball_floor(family.E, family.n)

    # window containment, exact
    worst = float(family.window_slack.min()) if len(family) else math.inf
    rows.append(AuditRow.at_least(
        "family/window-containment", "packing-window", worst, 0.0,
        ok=worst >= -GEOMETRY_TOL))

    # pairwise disjoint-or-nested per stage, exact
    for k in range(1, family.depth + 1):
        ids = family.stage_ids(k)
        x = family.base_centers[ids]
        rad = family.primed_radii[ids]
        index = BallIndex(x, rad)
        first, second, sq = index.pairs()
        sep = np.sqrt(sq)
        disjoint = sep - (rad[first] + rad[second])
        nested = np.abs(rad[first] - rad[second]) - sep
        bad = np.flatnonzero(~((disjoint >= -GEOMETRY_TOL)
                               | (nested >= -GEOMETRY_TOL)))
        if len(bad) == 0:
            rows.append(AuditRow.zero_count(
                f"family/stage-{k}/disjoint-or-nested", "packing-pairs", 0))
        else:
            # name the worst offending pair by its family hole ids, the
            # lowest (i, j) among equals
            worst = bad[int(np.argmin(disjoint[bad]))]
            i, j = first[worst], second[worst]
            worst_gap = float(disjoint[worst])
            rows.append(AuditRow.at_least(
                f"family/stage-{k}/disjoint-or-nested/"
                f"pair-{int(ids[i])}-{int(ids[j])}",
                "packing-pairs", worst_gap, 0.0))

    # one walk over the levels in (stage, level) order: each level's
    # largest radius lies below every earlier level's smallest, and the
    # replayed floor measures and adds every hole with its own radius
    decay_ok, prev_min = True, math.inf
    floor_rows: list[AuditRow] = []
    for k in range(1, family.depth + 1):
        plane = family.plane(k)
        space = StageSpace(window=window,
                           cover_factor=footprint_factor(family.L, plane.slope),
                           E=family.E)
        ids = family.stage_ids(k)
        for lvl in np.unique(family.levels[ids]):
            sel = ids[family.levels[ids] == lvl]
            ts = family.ts[sel]
            decay_ok = decay_ok and float(ts.max()) < prev_min - 1e-15
            prev_min = min(prev_min, float(ts.min()))
            rng = substream(settings.seed, "floor-replay", k, int(lvl))
            try:
                pts = space.sample_uncovered(rng, settings.floor_samples,
                                             4 * settings.floor_samples)
            except NeedsMoreSamples as exc:
                raise NeedsMoreSamples(
                    f"floor replay of stage {k} level {int(lvl)}: {exc}"
                    ) from exc
            frac = float(contains_any(pts, family.base_centers[sel],
                                      ts).mean())
            floor_rows.append(AuditRow.at_least(
                f"family/stage-{k}/level-{int(lvl)}/ball-floor",
                "packing-floor", frac, floor,
                half_width=bernoulli_half_width(frac, len(pts))))
            space.add_level(family.base_centers[sel], ts)
    rows.append(AuditRow.at_least("family/radius-decay", "packing-decay",
                                  float(decay_ok), 1.0))
    return rows + floor_rows


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

REPORT_FORMAT = "audit-report/1"
CSV_HEADER = "id,lemma_ref,measured,bound,margin,status"
STATUSES = ("pass", "fail", "indeterminate")
# the report's row sections, in file order
SECTIONS = ("construction_audits", "analysis_audits", "budget_ledgers",
            "porosity")
CONSTRUCTION, ANALYSIS, BUDGET, POROSITY = SECTIONS


@dataclass(frozen=True)
class AuditRow:
    """One verdict line: what was measured, against what, and how it went."""

    id: str
    check: str
    measured: float
    bound: float
    margin: float
    status: str

    @classmethod
    def at_most(cls, id: str, check: str, measured: float, bound: float,
                ok: Optional[bool] = None) -> "AuditRow":
        """A measured value bounded above; ``ok`` overrides measured <= bound
        where the verdict carries a tolerance."""
        measured, bound = float(measured), float(bound)
        ok = measured <= bound if ok is None else ok
        return cls(id, check, measured, bound, bound - measured,
                   "pass" if ok else "fail")

    @classmethod
    def at_least(cls, id: str, check: str, measured: float, bound: float,
                 ok: Optional[bool] = None,
                 half_width: float = 0.0) -> "AuditRow":
        """A measured value bounded below; ``ok`` as for ``at_most``.  A
        sampled value's margin and status come from the lower end of its
        interval, ``measured - half_width``."""
        measured, bound = float(measured), float(bound)
        low = measured - half_width
        ok = low >= bound if ok is None else ok
        return cls(id, check, measured, bound, low - bound,
                   "pass" if ok else "fail")

    @classmethod
    def zero_count(cls, id: str, check: str, count: int,
                   nonzero: str = "fail") -> "AuditRow":
        """A count of offending cases, which passes only at zero."""
        return cls(id, check, float(count), 0.0, 0.0,
                   "pass" if count == 0 else nonzero)

    def as_dict(self) -> dict:
        return {"id": self.id, "lemma_ref": self.check,
                "measured": self.measured, "bound": self.bound,
                "margin": self.margin, "status": self.status}

    @classmethod
    def from_dict(cls, d: dict) -> "AuditRow":
        # a d-energy ratio may be inf, so the numbers may be non-finite
        row = cls(d["id"], d["lemma_ref"], status=d["status"], **{
            key: real(key, d[key], finite=False)
            for key in ("measured", "bound", "margin")})
        if not (isinstance(row.id, str) and isinstance(row.check, str)) \
                or row.status not in STATUSES:
            raise ValueError(f"malformed row {d!r}")
        return row


def merged_status(rows: Sequence[AuditRow]) -> str:
    """The status of a group of rows: fail, else indeterminate, else pass."""
    statuses = {row.status for row in rows}
    return next((s for s in ("fail", "indeterminate") if s in statuses),
                "pass")


@dataclass(frozen=True)
class AuditReport:
    """Deterministic aggregation of all verdicts for one family + corpus.

    ``sections`` maps each name of ``SECTIONS`` to its rows; absent
    sections are empty.  The verdicts are derived from the rows.
    """

    config: dict
    sections: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.sections) - set(SECTIONS))
        if unknown:
            raise ValueError(f"unknown report sections {unknown}")
        object.__setattr__(self, "sections", {
            name: list(self.sections.get(name, ())) for name in SECTIONS})

    @classmethod
    def merge(cls, reports: Sequence["AuditReport"]) -> "AuditReport":
        """All rows of the reports, section by section, under the first
        report's config."""
        return cls(reports[0].config, {
            name: [row for r in reports for row in r.sections[name]]
            for name in SECTIONS})

    def rows(self) -> list[AuditRow]:
        return [row for rows in self.sections.values() for row in rows]

    @property
    def verdicts(self) -> dict:
        counts = {status: 0 for status in STATUSES}
        for row in self.rows():
            counts[row.status] += 1
        return {"overall": merged_status(self.rows()), **counts}

    def to_json(self) -> str:
        doc = {"format": REPORT_FORMAT, "config": self.config,
               **{name: [row.as_dict() for row in rows]
                  for name, rows in self.sections.items()},
               "verdicts": self.verdicts}
        return json.dumps(doc, separators=(",", ":"), allow_nan=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        """Parse a report; anything malformed raises ``ValueError``."""
        try:
            doc = json.loads(text)
            if doc.get("format") != REPORT_FORMAT:
                raise ValueError(
                    f"unsupported report format {doc.get('format')!r}")
            if not isinstance(doc["config"], dict):
                raise ValueError("report config is not an object")
            report = cls(doc["config"], {
                name: [AuditRow.from_dict(d) for d in doc[name]]
                for name in SECTIONS})
            if doc["verdicts"] != report.verdicts:
                raise ValueError("report verdicts disagree with its rows")
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed report: {exc!r}") from exc
        return report

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows():
            lines.append(",".join([
                row.id, row.check, repr(row.measured), repr(row.bound),
                repr(row.margin), row.status]))
        return "\n".join(lines) + "\n"


def ledger_rows(ledger: BudgetLedger) -> list[AuditRow]:
    """One field's budget ledger as report rows: its verdict, then the
    rows of each stage."""
    return [ledger.verdict, *(row for st in ledger.stages for row in st.rows)]


# ---------------------------------------------------------------------------
# family-independent analytic suite
# ---------------------------------------------------------------------------

# Ceilings for the measured analytic constants.  Policy: pinned at roughly
# 10x the value observed on the release corpus (suite instance plus the
# acceptance sweeps), rounded up; the suite reports measured vs ceiling,
# it never assumes a constant.
IDENTITY_TOL = 1e-6
AFFINE_FIX_TOL = 1e-8
FLATTEN_C = 0.1          # worst observed residual scale 7.0e-3
AREA_C = 100.0           # worst observed cone-instance ratio 9.0
SOBOLEV_C = 3.0          # ratio ~0.27, scale-stable across dilations
SMOOTHED_GRAD_C = 2.0    # worst observed gradient/eps 0.11


def _suite_sup(fn, ball: Ball, seed: int) -> float:
    rng = substream(seed, "suite-sup", ball.dim)
    pts = sample_shell(rng, ball.center, 0.0, ball.radius, 4096)
    vals = np.asarray(fn(pts), dtype=float)
    centre = np.asarray(fn(ball.center[None, :]), dtype=float)
    return float(max(vals.max(), centre[0]))


def _row(slug: str, measured: float, bound: float) -> AuditRow:
    return AuditRow.at_most(f"analysis/{slug}", slug, measured, bound)


def analysis_suite(seed: int = 0) -> list[AuditRow]:
    """Family-independent checks of the smoothing and inequality toolkit.

    One representative instance per analytic guarantee, each reduced to a
    measured-vs-bound row.  The heavyweight corpus sweeps live in the test
    suite; this is the auditable smoke that the toolkit behaves before any
    family-specific verdict is trusted.
    """
    c = np.full(3, 0.5)
    rows = []

    # unit mass of the averaging kernel, by independent radial quadrature
    moll = make_mollifier(3)
    mass = mollifier_mass(moll, 0.05)
    rows.append(_row("mollifier-mass", abs(mass - 1.0), 1e-6))

    # affine fields are fixed points of discrete smoothing
    grad = np.array([0.2, -0.1, 0.15])
    window = Ball(c, 0.25)
    affine = _plane_patch(AffinePlane(index=1, gradient=grad, offset=0.004,
                                      anchor=c), window, (), "affine")
    eps = 0.01
    smooth_aff = mollify(affine, eps)
    rows.append(_row(
        "affine-fix",
        _suite_sup(lambda p: np.abs(smooth_aff.values(p) - affine.values(p)),
                   smooth_aff.domain, seed),
        AFFINE_FIX_TOL))

    # smoothing moves a field by at most eps times its gradient bound
    bump = bump_field(c, 0.2, 0.2 / BUMP_SLOPE_SUP, label="unit-bump")
    smooth_bump = mollify(bump, 0.005)
    rows.append(_row(
        "mollify-drift",
        _suite_sup(lambda p: np.abs(smooth_bump.values(p) - bump.values(p)),
                   smooth_bump.domain, seed),
        0.005 * bump.grad_bound))

    # cutoff slope stays under 3/(eps*t)
    cut = make_cutoff(Ball(c, 0.02), 0.05)
    band = substream(seed, "suite-cutoff")
    probes = sample_shell(band, c, cut.plateau_radius, cut.support_radius,
                          4096)
    sup_slope = float(np.linalg.norm(cut.field.gradients(probes),
                                     axis=1).max())
    rows.append(_row("cutoff-slope", sup_slope,
                     cut.slope_cap * (1.0 + 1e-9)))

    # blended field obeys max(grad bounds) + 3*eps
    t = cut.ball.radius
    inner = bump_field(c, cut.support_radius, 0.9 * cut.eps**2 * t,
                       label="inner")
    outer = _plane_patch(AffinePlane(index=1, gradient=np.zeros(3),
                                     offset=0.0, anchor=c),
                         cut.ball, (), "outer")
    mixed = blend(inner, outer, cut, seed=seed)
    blend_bound = max(inner.grad_bound, outer.grad_bound) + 3.0 * cut.eps
    sup_mixed = _suite_sup(
        lambda p: np.linalg.norm(mixed.gradients(p), axis=1),
        cut.ball, seed)
    rows.append(_row("blend-gradient", sup_mixed,
                     blend_bound * (1.0 + 1e-9)))

    # energy splitting: residual equals the cross term, and scales with eps
    plane = AffinePlane(index=1, gradient=np.array([0.3, 0.0, 0.0]),
                        offset=0.0, anchor=c)
    wobble = bump_field(c, 0.15, 0.9 * 0.01 * window.radius, label="wobble")
    tilted = ScalarField(
        domain=window,
        fn=lambda pts: plane.heights(pts) + wobble.values(pts),
        grad_fn=lambda pts: (np.broadcast_to(
            plane.gradient, np.atleast_2d(pts).shape)
            + wobble.gradients(pts)),
        grad_bound=plane.slope + wobble.grad_bound, label="tilted")
    flat = flatten_residual(tilted, plane, window, 0.01, seed=seed)
    rows.append(_row("flatten-identity", flat.identity_gap, IDENTITY_TOL))
    rows.append(_row("flatten-shape", flat.bound_scale, FLATTEN_C))

    # critical-exponent norm controlled by the energy
    sob = sobolev_ratio(bump, Ball(c, 0.25), alpha=0.5, seed=seed)
    rows.append(_row("sobolev-ratio", sob.ratio, SOBOLEV_C))

    # peak-area estimate at one height
    h = 0.05
    peak = bump_field(c, 0.2, h, label="peak")
    area = area_lower_bound_check(peak, Ball(c, 0.25), h, seed=seed)
    rows.append(_row("area-ratio", area.ratio, AREA_C))

    # gradient collapse under smoothing of a capped field
    dom = Ball(c, 0.25)
    cap = 0.05**2 * dom.radius
    capped = bump_field(c, dom.radius, cap, label="capped")
    sg = smoothed_gradient_check(capped, 0.05, seed=seed)
    rows.append(_row("smoothed-gradient", sg.gradient_over_eps,
                     SMOOTHED_GRAD_C))
    return rows
