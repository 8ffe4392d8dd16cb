"""Stratified hole-family builder.

Stages pack the window ball with shrinking levels of equal-radius balls,
lift each ball above a scheduled base plane, and expose the resulting
ball indices (per-stage enlarged unions and the union of raw holes) and
the truncated intersection set as membership predicates.

Coverage bookkeeping uses the footprint radius ``footprint_factor(L,
slope)`` times t, for the slope of the stage's plane: within it, a base
point lies under the L-enlargement of the lifted hole, so "covered" during
packing is at most what the per-stage union will later cover on its plane.
Zero slope gives sqrt(L^2 - 4).
New centers are sampled from uncovered points far from all prior coverage
spheres, which keeps each new E-enlarged ball wholly inside uncovered
territory — the packing and disjointness guarantees follow from that alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .bounds import ball_floor, primed_radius, stop_target, strict_regime
from .errors import (ConstructionFailure, NeedsMoreSamples, ParseError,
                     conform, conform_fields, real, setting)
from .geometry import (REACH_SLACK, AffinePlane, Ball, BallIndex,
                       MeasureEstimate, run_starts, sq_dists,
                       unit_ball_volume)
from .sampling import (SEED_MAX, SamplingBudget, bernoulli_half_width,
                       place_shell, sample_shell, shell_draws,
                       stratified_ball_integral, substream)

FORMAT_VERSION = 1
# the build settings that a family file's header repeats
_HEADER_SETTINGS = ("n", "s", "r", "L", "E", "epsilons", "seed")
HALF_MARGIN = 0.01          # slack on the far test's "at least half" only
MAX_HALVINGS = 60
UNCOVERED_BATCHES = 400     # rejection draws before giving up
# pool points that ``_greedy_select`` resolves against each other at once.
# CPU time of the greedy per build-benchmark operation (demo pools of
# 2.1-3.2k points, 2 cores, numpy 2.4.6): 40.9 ms listing every close pair
# of the pool first; 20.5 ms in blocks of 128, 12.7 ms of 256, 14.9 ms of
# 512 and 26.5 ms of 1024
GREEDY_BLOCK = 256


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildConfig:
    # measured up to 63: the demo config at n = 63 ends, in a certified
    # failure, within 12 s of CPU and 250 MB
    n: int = setting(3, type="integer", minimum=3, maximum=63)
    s: float = setting(0.25, type="number", exclusiveMinimum=0,
                       exclusiveMaximum=0.5)
    r: float = setting(1.0 / 64.0, type="number", exclusiveMinimum=0,
                       exclusiveMaximum=0.03125)
    L: float = setting(math.sqrt(10.0), type="number", exclusiveMinimum=2)
    epsilons: tuple = setting((0.0025, 0.00125), type="array",
                              items={"type": "number", "exclusiveMinimum": 0})
    E: float = setting(1.5, type="number", exclusiveMinimum=1)
    # of the window volume
    stop_fractions: tuple = setting(
        (0.25, 0.125), type="array",
        items={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1})
    depth: int = setting(2, type="integer", minimum=1)
    seed: int = setting(0, type="integer", minimum=0, maximum=SEED_MAX)
    max_levels: int = setting(12, type="integer", minimum=1)
    budget: SamplingBudget = SamplingBudget(32, 128)
    # measured up to 2^16 under a 1 GiB address-space cap: the demo
    # config at pool_size = 2^16 builds 3,532 holes within 1.1 s of CPU
    # and 50 MB
    pool_size: int = setting(4096, type="integer", minimum=64,
                             maximum=2**16)
    config_hash: str = ""

    def __post_init__(self) -> None:
        conform_fields(self)
        for name in ("epsilons", "stop_fractions"):
            count = len(getattr(self, name))
            if count < self.depth:
                raise ValueError(f"{name} must list one number per stage "
                                 f"({self.depth}), got {count}")

    @property
    def window(self) -> Ball:
        return Ball(np.full(self.n, 0.5), self.s)


def footprint_factor(L: float, slope: float) -> float:
    """Guaranteed base-footprint radius, over t, of an L-enlarged lifted hole.

    A base point y sits under the enlargement of the hole over x whenever
    |y-x|^2 + (a(y)-a(x)-2t)^2 <= L^2 t^2.  With |grad a| <= slope the worst
    case is full descent, leaving (1+slope^2) u^2 + 4 slope t u <= (L^2-4) t^2
    for u = |y-x|.  Zero slope recovers sqrt(L^2-4).
    """
    if L <= 2.0:
        raise ValueError("enlargement L must exceed 2 (lift height)")
    if slope < 0:
        raise ValueError("slope bound must be non-negative")
    a = 1.0 + slope**2
    return (-2.0 * slope + math.sqrt(4.0 * slope**2 + (L**2 - 4.0) * a)) / a


def plane_schedule(k: int) -> int:
    """Diagonal enumeration 1; 1,2; 1,2,3; ... — every index recurs forever."""
    if k < 1:
        raise ValueError("stage index is 1-based")
    b = 1
    while b * (b + 1) // 2 < k:
        b += 1
    return k - b * (b - 1) // 2


def _dyadic_sequence(i: int) -> float:
    """0, 1/2, -1/2, 1/4, 3/4, -1/4, -3/4, 1/8, ... — dense in (-1, 1)."""
    if i == 0:
        return 0.0
    i -= 1
    level = 1
    # level d holds 2^d positive odd numerators (and their negatives)
    while i >= 2 ** level:
        i -= 2 ** level
        level += 1
    sign = 1.0 if i % 2 == 0 else -1.0
    numerator = 2 * (i // 2) + 1
    return sign * numerator / 2.0 ** level


def _unpair(z: int) -> tuple[int, int]:
    w = int((math.isqrt(8 * z + 1) - 1) // 2)
    t = w * (w + 1) // 2
    return z - t, w - (z - t)


def plane_for_index(m: int, n: int, r: float) -> AffinePlane:
    """Deterministic enumeration of reference planes, dense in the limit.

    Index 1 is the zero plane.  Later indices interleave a dyadic offset
    sequence (scaled to |offset| < 1/32) with a dyadic gradient lattice of
    magnitude below r.  Every plane is anchored at the window centre.
    """
    if m < 1:
        raise ValueError("plane index is 1-based")
    anchor = np.full(n, 0.5)
    if m == 1:
        return AffinePlane(index=1, gradient=np.zeros(n), offset=0.0,
                           anchor=anchor)
    i, j = _unpair(m - 2)
    offset = _dyadic_sequence(i) / 32.0
    grad_idx = j
    grad = np.zeros(n)
    for axis in range(n - 1):
        grad_idx, part = _unpair(grad_idx)
        grad[axis] = _dyadic_sequence(part)
    grad[n - 1] = _dyadic_sequence(grad_idx)
    norm = np.linalg.norm(grad)
    if norm > 0:
        # scale the lattice direction to magnitude < r while staying rational
        grad = grad * (r / 2.0)
    return AffinePlane(index=m, gradient=grad, offset=offset, anchor=anchor)


# ---------------------------------------------------------------------------
# stage-local geometry: uncovered region and boundary distances
# ---------------------------------------------------------------------------

@dataclass
class StageSpace:
    """Mutable per-stage view: coverage balls accrue as levels finish.

    Coverage (what the stop rule measures) uses ``cover_factor`` times t;
    the build and the floor replay pass ``footprint_factor(L, slope)`` for
    the stage plane's slope.  The far condition (``far_fraction``) asks
    for distance to the window complement and to the spheres of the
    E-enlargements, the objects the packing keeps disjoint.
    """

    window: Ball
    cover_factor: float
    E: float
    # the levels added so far, only through ``add_level``
    centers: np.ndarray = field(init=False)
    radii: np.ndarray = field(init=False)              # base t
    index: BallIndex = field(init=False, repr=False)   # of the coverage balls

    def __post_init__(self) -> None:
        self.centers = np.zeros((0, self.window.dim))
        self.radii = np.zeros(0)
        self.index = BallIndex(self.centers, self.radii)

    def add_level(self, centers: np.ndarray, t) -> None:
        """Add balls at ``centers`` of radius ``t``, one or one per ball."""
        self.centers = np.vstack([self.centers, centers])
        self.radii = np.concatenate([self.radii, np.full(len(centers), t)])
        self.index = BallIndex(self.centers, self.cover_factor * self.radii)

    def covered(self, pts: np.ndarray) -> np.ndarray:
        return self.index.contains_any(pts)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the window complement and all enlarged-ball spheres.

        The dense reference of ``far_fraction``: it allocates a block of
        points x min(balls, 4096) x dim, so the pipeline never calls it.
        Kept for the tests and the bench tracer."""
        pts = np.atleast_2d(pts)
        d = self.window.radius - np.linalg.norm(pts - self.window.center,
                                                axis=1)
        if len(self.radii):
            for lo in range(0, len(self.radii), 4096):
                hi = min(lo + 4096, len(self.radii))
                dist = np.linalg.norm(
                    pts[:, None, :] - self.centers[None, lo:hi, :], axis=2)
                sphere = np.abs(dist - self.E * self.radii[lo:hi])
                d = np.minimum(d, sphere.min(axis=1))
        return d

    def sample_uncovered(self, rng: np.random.Generator, count: int,
                         batch: int) -> np.ndarray:
        """Uniform points of window-minus-coverage, by rejection from
        draws of ``batch`` window points at a time."""
        out = []
        have = 0
        for _ in range(UNCOVERED_BATCHES):
            cand = sample_shell(rng, self.window.center, 0.0,
                                self.window.radius, batch)
            keep = cand[~self.covered(cand)]
            if len(keep):
                out.append(keep)
                have += len(keep)
            if have >= count:
                return np.vstack(out)[:count]
        raise NeedsMoreSamples(
            f"could not draw {count} uncovered points in {UNCOVERED_BATCHES} "
            f"batches; uncovered region is likely below the stop threshold")

    def uncovered_measure(self, budget: SamplingBudget, seed: int,
                          key: Sequence = ()) -> MeasureEstimate:
        if len(self.radii) == 0:
            return MeasureEstimate(self.window.volume(), 0.0, "exact", 0)

        def outside(pts: np.ndarray) -> np.ndarray:
            return (~self.covered(pts)).astype(float)

        return stratified_ball_integral(outside, self.window, seed, budget,
                                        key=("uncovered", *key))


# ---------------------------------------------------------------------------
# level construction
# ---------------------------------------------------------------------------

def far_fraction(space: StageSpace, pts: np.ndarray,
                 r_new: float) -> np.ndarray:
    """Which points lie at least ``E * r_new`` inside the window and
    outside every annulus ``| |p - c_i| - E t_i | < E r_new`` around the
    spheres of the stage's E-enlargements, with ``E = space.E``.

    The annulus pairs come from one ``BallIndex`` query on radii
    ``(E t_i + E r_new)(1 + REACH_SLACK)``, a superset of the near pairs,
    and each candidate gets the dense expressions of
    ``StageSpace.boundary_distance``.  Since ``min(a, b) >= x`` holds
    exactly when ``a >= x`` and ``b >= x``, and ``np.sqrt`` of the
    query's squared distance, by ``sq_dists``, rounds each pair's
    distance as the dense block's row norm does, the booleans equal
    ``boundary_distance(pts) >= E * r_new`` bit for bit, without its
    points x balls block.
    """
    pts = np.atleast_2d(pts)
    gap = space.E * r_new
    far = (space.window.radius
           - np.linalg.norm(pts - space.window.center, axis=1)) >= gap
    sphere = space.E * space.radii
    index = BallIndex(space.centers, (sphere + gap) * (1.0 + REACH_SLACK))
    q, j, sq = index.members(pts)
    dist = np.sqrt(sq)
    far[q[np.abs(dist - sphere[j]) < gap]] = False
    return far


def choose_level_radius(space: StageSpace, r_prev: float, seed: int,
                        budget: SamplingBudget,
                        key: Sequence = ()) -> tuple[float, float]:
    """Largest halving of r_prev/E whose far condition holds for half the
    uncovered mass; returns (radius, certified far fraction)."""
    r = r_prev / space.E
    for attempt in range(MAX_HALVINGS):
        rng = substream(seed, "radius", *key, attempt)
        total = budget.total
        for escalation in (1, 4):
            count = total * escalation
            pts = space.sample_uncovered(rng, count, max(count, 1024))
            far = far_fraction(space, pts, r)
            frac = float(far.mean())
            hw = bernoulli_half_width(frac, len(pts))
            if frac - hw >= 0.5 + HALF_MARGIN:
                return r, frac
            if frac + hw < 0.5 + HALF_MARGIN:
                break  # clearly insufficient; no point escalating
        r /= 2.0
    raise NeedsMoreSamples(
        f"far condition not certifiable after {MAX_HALVINGS} halvings "
        f"(reached r={r:g})")


def _greedy_select(pool: np.ndarray, min_sep: float) -> np.ndarray:
    """Greedy prefix of the pool with pairwise separation >= min_sep: the
    lexicographically first maximal subset whose pairs all have
    ``sq_dists >= min_sep * min_sep``.

    The pool is walked in order, ``GREEDY_BLOCK`` points at a time.  A
    block first drops its points inside the open min_sep-ball of a centre
    kept so far, through one ball index over the kept centres; the
    survivors are then resolved in pool order against each other.  Memory
    is bounded by the kept set and one block's pairs.
    """
    keep = np.zeros(len(pool), dtype=bool)
    sep2 = min_sep * min_sep
    for start in range(0, len(pool), GREEDY_BLOCK):
        at = np.arange(start, min(start + GREEDY_BLOCK, len(pool)))
        kept = pool[:start][keep[:start]]
        index = BallIndex(kept, np.full(len(kept), min_sep))
        at = at[~index.contains_any(pool[at])]
        cols = np.ascontiguousarray(pool[at].T)
        i, j = np.triu_indices(len(at), 1)
        close = sq_dists(cols, i, cols, j) < sep2
        near = np.zeros((len(at), len(at)), dtype=bool)
        near[i[close], j[close]] = True
        alive = np.ones(len(at), dtype=bool)
        # ascending, so each earlier point's fate is already final
        for a in np.flatnonzero(near.any(axis=1)).tolist():
            if alive[a]:
                alive &= ~near[a]
        keep[at[alive]] = True
    return pool[keep]


def pack_level(space: StageSpace, k: int, level: int, r_new: float,
               cfg: BuildConfig) -> tuple[np.ndarray, float, float]:
    """Greedy packing of certified-far uncovered points at separation 2 E r,
    with ``E = space.E``.

    Certifies that the doubled enlargements cover at least half of the
    uncovered region and that the balls themselves cover at least
    ``ball_floor(E, n)`` of it; returns the centres and both fractions.
    """
    E = space.E
    floor = ball_floor(E, cfg.n)
    centers = np.zeros((0, space.window.dim))
    for round_idx in range(4):
        rng = substream(cfg.seed, "pack", k, level, round_idx)
        pool_size = cfg.pool_size * (2 ** round_idx)
        pts = space.sample_uncovered(rng, pool_size, max(pool_size, 1024))
        pts = pts[far_fraction(space, pts, r_new)]
        pts = pts[rng.permutation(len(pts))]
        centers = _greedy_select(np.vstack([centers, pts]), 2.0 * E * r_new)

        check_rng = substream(cfg.seed, "pack-check", k, level, round_idx)
        probe = space.sample_uncovered(check_rng, cfg.budget.total,
                                       max(cfg.budget.total, 1024))
        # one query answers both, as r_new < 2 E r_new
        index = BallIndex(centers, np.full(len(centers), 2.0 * E * r_new))
        q, _, sq = index.members(probe)
        inner = sq < r_new * r_new
        pc = len(run_starts(q)) / len(probe)
        bc = len(run_starts(q[inner])) / len(probe)
        hw_p = bernoulli_half_width(pc, len(probe))
        hw_b = bernoulli_half_width(bc, len(probe))
        if pc - hw_p >= 0.5 and bc - hw_b >= floor:
            return centers, pc, bc
    raise ConstructionFailure(
        f"stage {k} level {level}: could not certify coverage guarantees "
        f"(pair {pc:.3f}, ball {bc:.3f} vs floor {floor:.3e})",
        stage=k, level=level, pair_fraction=pc, ball_fraction=bc)


def build_stage(k: int, cfg: BuildConfig,
                r_prev: float) -> tuple[StageSpace, dict]:
    """Run levels until the uncovered upper confidence bound meets the
    stage target, or raise ``ConstructionFailure`` at the level cap or a
    failed certification.  Returns the stage's space, which holds every
    level's centres and radii, and its log with one entry per level."""
    stage_plane = plane_for_index(plane_schedule(k), cfg.n, cfg.r)
    space = StageSpace(window=cfg.window,
                       cover_factor=footprint_factor(cfg.L, stage_plane.slope),
                       E=cfg.E)
    threshold = stop_target(cfg.n, cfg.s, cfg.stop_fractions[k - 1])
    levels: list[dict] = []
    r_level = r_prev
    uncovered = space.uncovered_measure(cfg.budget, cfg.seed,
                                        key=("stage", k, 0))
    for level in range(1, cfg.max_levels + 1):
        if uncovered.upper() <= threshold:
            break
        r_level, far_frac = choose_level_radius(
            space, r_level, cfg.seed, cfg.budget, key=(k, level))
        centers, pair_frac, ball_frac = pack_level(space, k, level, r_level,
                                                   cfg)
        space.add_level(centers, r_level)
        uncovered = space.uncovered_measure(cfg.budget, cfg.seed,
                                            key=("stage", k, level))
        levels.append({"k": k, "level": level, "radius": r_level,
                       "count": len(centers), "far_fraction": far_frac,
                       "pair_cover_fraction": pair_frac,
                       "ball_fraction": ball_frac,
                       "uncovered_after": uncovered.value,
                       "uncovered_after_hw": uncovered.half_width})
    if uncovered.upper() > threshold:
        raise ConstructionFailure(
            f"stage {k}: uncovered {uncovered.value:.4e} "
            f"(+{uncovered.half_width:.1e}) above target {threshold:.4e} "
            f"after {len(levels)} levels",
            stage=k,
            uncovered=uncovered.value, threshold=threshold)
    return space, {"k": k, "plane_index": plane_schedule(k),
                   "levels": levels, "uncovered": uncovered.value,
                   "uncovered_half_width": uncovered.half_width,
                   "threshold": threshold}


# ---------------------------------------------------------------------------
# the family: stored records and derived lifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoleFamily:
    """Immutable array-of-records view of a finished build.

    A hole is fully given by its stage, level, base centre and radius;
    its lifted centre, volume, primed radius E·t, window slack and each
    stage's radius derive from those, once.
    """

    n: int
    s: float
    r: float
    L: float
    E: float
    epsilons: tuple
    seed: int
    config_hash: str
    ks: np.ndarray             # (N,) stage indices
    levels: np.ndarray         # (N,) level indices
    base_centers: np.ndarray   # (N, n)
    ts: np.ndarray             # (N,)

    def __post_init__(self) -> None:
        # the header fields refuse what a family file's header refuses
        for key, value in _header_fields(vars(self)).items():
            object.__setattr__(self, key, value)
        count = len(self.epsilons)
        if count < self.depth:
            raise ValueError(f"epsilons lists {count} value"
                             f"{'s' * (count != 1)} for {self.depth} stages")

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def depth(self) -> int:
        return int(self.ks.max()) if len(self.ts) else 0

    @property
    def window(self) -> Ball:
        return Ball(np.full(self.n, 0.5), self.s)

    def stage_ids(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.ks == k)

    def plane(self, k: int) -> AffinePlane:
        return plane_for_index(plane_schedule(k), self.n, self.r)

    @cached_property
    def lifted_centers(self) -> np.ndarray:
        """(N, n+1): each base ball B(x, t) of stage k becomes a hole
        centred at (x, a(x) + 2t) over the stage's plane a."""
        heights = np.empty(len(self.ts))
        for k in range(1, self.depth + 1):
            ids = self.stage_ids(k)
            heights[ids] = (self.plane(k).heights(self.base_centers[ids])
                            + 2.0 * self.ts[ids])
        return np.hstack([self.base_centers, heights[:, None]])

    @cached_property
    def volumes(self) -> np.ndarray:
        """(N,): each hole's cross-section |B| = omega_n t^n."""
        return unit_ball_volume(self.n) * self.ts ** self.n

    @cached_property
    def primed_radii(self) -> np.ndarray:
        """(N,): each hole's primed radius E·t, the packing's radius."""
        return primed_radius(self.E, self.ts)

    @cached_property
    def window_slack(self) -> np.ndarray:
        """(N,): how far each primed ball B(x, E·t) lies inside the window."""
        window = self.window
        return window.radius - np.linalg.norm(
            self.base_centers - window.center, axis=1) - self.primed_radii

    @cached_property
    def stage_radii(self) -> tuple:
        """r_k: the smallest (last-level) radius of each stage."""
        return tuple(float(self.ts[self.stage_ids(k)].min())
                     for k in range(1, self.depth + 1))


def build_family(cfg: BuildConfig) -> tuple[HoleFamily, dict]:
    """Run all stages and assemble the family plus a build log."""
    if strict_regime(cfg.E, cfg.epsilons[:cfg.depth],
                     cfg.stop_fractions[:cfg.depth]):
        raise ConstructionFailure(
            "strict parameters are computationally infeasible at this scale "
            "(per-level coverage ~(eps^3)^n); rerun in relaxed mode with a "
            "configured enlargement factor E and stop fractions",
            reason="strict-infeasible")
    spaces, stage_logs = [], []
    r_prev = cfg.s
    for k in range(1, cfg.depth + 1):
        space, log = build_stage(k, cfg, r_prev)
        spaces.append(space)
        stage_logs.append(log)
        r_prev = float(space.radii[-1])
    level_logs = [lv for log in stage_logs for lv in log["levels"]]
    sizes = [lv["count"] for lv in level_logs]
    family = HoleFamily(
        n=cfg.n, s=cfg.s, r=cfg.r, L=cfg.L, E=cfg.E,
        epsilons=cfg.epsilons, seed=cfg.seed, config_hash=cfg.config_hash,
        ks=np.repeat([lv["k"] for lv in level_logs], sizes).astype(np.int64),
        levels=np.repeat([lv["level"] for lv in level_logs], sizes
                         ).astype(np.int64),
        base_centers=np.vstack([space.centers for space in spaces]),
        ts=np.concatenate([space.radii for space in spaces]))
    return family, {"stages": stage_logs}


# ---------------------------------------------------------------------------
# membership indices
# ---------------------------------------------------------------------------

def assemble_Pk(family: HoleFamily, k: int) -> BallIndex:
    """L-enlargements of all holes of diameter below 1/k."""
    ids = np.flatnonzero(2.0 * family.ts < 1.0 / k)
    return BallIndex(family.lifted_centers[ids], family.L * family.ts[ids])


def assemble_H(family: HoleFamily) -> BallIndex:
    """All raw holes, unenlarged."""
    return BallIndex(family.lifted_centers, family.ts)


@dataclass(frozen=True)
class TruncatedP:
    """Membership in (intersection of P_k, k <= depth) minus H; ``pks``
    holds one index per distinct P_k ball set."""

    family: HoleFamily
    depth: int
    pks: tuple
    holes: BallIndex

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        inside = np.ones(len(pts), dtype=bool)
        for pk in self.pks:
            inside &= pk.contains_any(pts)
        inside &= ~self.holes.contains_any(pts)
        return inside


def truncated_P(family: HoleFamily, depth: Optional[int] = None) -> TruncatedP:
    depth = family.depth if depth is None else depth
    if depth < 1:
        raise ValueError(f"truncation depth must be at least 1, got {depth}")
    # P_k's ball set shrinks as k grows: the first k of each size
    first = {int((2.0 * family.ts < 1.0 / k).sum()): k
             for k in range(depth, 0, -1)}
    pks = tuple(assemble_Pk(family, k) for k in sorted(first.values()))
    return TruncatedP(family=family, depth=depth, pks=pks,
                      holes=assemble_H(family))


def sample_truncated_P(tp: TruncatedP, count: int, seed: int,
                       max_tries: int = 200) -> np.ndarray:
    """Volume-weighted sampling of the truncated set.

    Draw a hole eligible for every stage (diameter below 1/depth), sample
    its L-enlargement, reject points lying in any raw hole.  Accepted points
    are guaranteed members, which the caller may independently re-check.
    """
    fam = tp.family
    eligible = np.flatnonzero(2.0 * fam.ts < 1.0 / tp.depth)
    if len(eligible) == 0:
        raise ConstructionFailure("no holes eligible for every stage")
    radii = fam.L * fam.ts[eligible]
    weights = radii ** (fam.n + 1)
    weights = weights / weights.sum()
    rng = substream(seed, "sample-P")
    d, u = np.empty((count, fam.n + 1)), np.empty(count)
    keep = np.empty((0, fam.n + 1))
    for _ in range(max_tries):
        hids = eligible[rng.choice(len(eligible), size=count, p=weights)]
        # each point's draws in stream order, as one-point sample_shell
        # calls take them, then placed together
        for i in range(count):
            shell_draws(rng, d[i], u[i:i + 1])
        pts = place_shell(d, u, fam.lifted_centers[hids], 0.0,
                          fam.L * fam.ts[hids])
        # the points kept so far passed already; test the new draws only
        keep = np.vstack([keep, pts[tp.contains(pts)]])
        if len(keep) >= count:
            return keep[:count]
    raise NeedsMoreSamples(
        f"could not sample {count} points of the truncated set "
        f"(have {len(keep)})")


# ---------------------------------------------------------------------------
# serialization: JSON lines, shortest round-trip floats, fixed order
# ---------------------------------------------------------------------------

# a record's keys, in the order the writer writes them
_RECORD_KEYS = ("k", "l", "m", "base_center", "t", "lifted_center")
# a record line, each key's value left as a format field
_RECORD_LINE = "{{" + ",".join(f'"{key}":{{}}' for key in _RECORD_KEYS) + "}}"


def serialize_family(family: HoleFamily) -> str:
    """A header line, then one record per hole in (stage, level) order;
    the derived ``m`` and ``lifted_center`` are repeated for readers."""
    header = {"format_version": FORMAT_VERSION,
              **{key: getattr(family, key) for key in _HEADER_SETTINGS},
              "config_hash": family.config_hash}
    lines = [json.dumps(header, separators=(",", ":"))]
    order = np.lexsort((np.arange(len(family)), family.levels, family.ks))
    ks = family.ks[order].tolist()
    plane = {k: plane_schedule(k) for k in set(ks)}
    base = _json_floats(family.base_centers[order])
    # a lifted centre is its base centre and a height
    heights = _json_floats(family.lifted_centers[order, family.n])
    for i, (k, level, t) in enumerate(zip(ks, family.levels[order].tolist(),
                                          _json_floats(family.ts[order]))):
        x = ",".join(base[i * family.n:(i + 1) * family.n])
        lines.append(_RECORD_LINE.format(k, level, plane[k], f"[{x}]", t,
                                         f"[{x},{heights[i]}]"))
    return "\n".join(lines) + "\n"


def _json_floats(values: np.ndarray) -> list:
    """Each entry of a float array, in C order, as ``json.dumps`` writes it."""
    write = repr if np.isfinite(values).all() else json.dumps
    return list(map(write, values.ravel().tolist()))


# what _record_columns raises on a record whose values do not convert
_COLUMN_ERRORS = (KeyError, TypeError, ValueError)


def _header_fields(header: dict) -> dict:
    """The family's header fields, converted and checked: config_hash a
    string, and n, s, r, L, E, epsilons and seed by the schemas of their
    ``BuildConfig`` fields.  A ValueError names the first field that
    fails."""
    config_hash = header["config_hash"]
    if not isinstance(config_hash, str):
        raise ValueError(f"config_hash must be a string, got {config_hash!r}")
    return {"config_hash": config_hash, **{
        f.name: conform(f.name, header[f.name], f.metadata["schema"])
        for f in fields(BuildConfig) if f.name in _HEADER_SETTINGS}}


def _column(recs: list, key: str, kinds: str, bools: bool,
            *width: int) -> np.ndarray:
    """The ``key`` values of parsed records in one ``np.array`` call, one
    row each; its dtype kind must be one of ``kinds``.  A string or a huge
    int among the values makes a string or object array, and a fraction
    among integers a float one.  A bool among numbers converts as numpy
    converts it, so with ``bools`` each value is also read by ``real``."""
    values = [rec[key] for rec in recs]
    col = np.array(values)
    if col.dtype.kind not in kinds or col.shape != (len(recs), *width):
        what = "an integer" if kinds == "i" else \
            f"a list of {width[0]} numbers" if width else "a number"
        raise ValueError(f"{key} must be {what}")
    for v in np.array(values, dtype=object).ravel() if bools else ():
        real(key, v, finite=False)
    return col


def _record_columns(recs: list, n: int, bools: bool) -> tuple:
    """k, l, m, t, base centres and lifted centres of parsed records."""
    ints = [_column(recs, key, "i", bools) for key in ("k", "l", "m")]
    reals = [_column(recs, key, "iuf", bools, *width).astype(float, copy=False)
             for key, width in (("t", ()), ("base_center", (n,)),
                                ("lifted_center", (n + 1,)))]
    return (*ints, *reals)


def _reject_first(linenos: list, rules: dict) -> None:
    """``ParseError`` at the first record that breaks a rule (message ->
    bool per record), with the first rule it breaks."""
    broken = np.array(list(rules.values())).reshape(len(rules), -1)
    if broken.any():
        i = int(np.argmax(broken.any(axis=0)))
        rule = list(rules)[int(np.argmax(broken[:, i]))]
        raise ParseError(f"line {linenos[i]}: {rule}")


_decode = json.JSONDecoder().raw_decode


def _record_json(raw: str, lineno: int):
    """``json.loads(raw)`` of one record line; a line that is not one JSON
    value raises ``ParseError`` naming it with ``json.loads``'s message.
    The line is decoded without ``loads``'s wrapper: JSON whitespace
    stripped, then one ``raw_decode`` that must reach the end."""
    line = raw.strip(" \t\n\r")
    try:
        rec, end = _decode(line)
        if end == len(line):
            return rec
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: invalid JSON: {exc}") from exc


def deserialize_family(text: str) -> HoleFamily:
    """Parse ``serialize_family`` output; records keep their file order.

    The header must hold its nine keys and no other, its fields must pass
    ``_header_fields`` and list an epsilon for every stage the records
    reach, or a ``ParseError`` names line 1.  Every record must hold the
    keys ``serialize_family`` writes and no other, its columns must pass
    ``_column``, with indices >= 1, finite numbers and a
    positive radius, and must repeat what the family derives: ``m`` is
    its stage's scheduled plane and ``lifted_center`` its lift, bit for
    bit, so that the file serializes back to itself.  A file with no
    record lists no holes and is rejected.
    The checks run over the parsed columns; a ``ParseError`` names the
    first line that breaks one.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty family stream")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"line 1: invalid JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError("line 1: header is not a JSON object")
    keys = {"format_version", "config_hash", *_HEADER_SETTINGS}
    missing, unknown = keys - set(header), set(header) - keys
    if missing:
        raise ParseError(f"line 1: header missing {sorted(missing)}")
    if unknown:
        raise ParseError(f"line 1: header has unknown keys {sorted(unknown)}")
    if header["format_version"] != FORMAT_VERSION:
        raise ParseError(
            f"line 1: unsupported format_version {header['format_version']}")
    try:
        settings = _header_fields(header)
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from exc
    n = settings["n"]
    recs, linenos = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        recs.append(_record_json(raw, lineno))
        linenos.append(lineno)
    if not recs:
        raise ParseError("the family lists no holes")
    try:
        ks, ls, ms, ts, base, lifted = _record_columns(recs, n, False)
        # numpy reads a bool among numbers as a number; JSON writes a bool
        # only as true or false
        if "true" in text or "false" in text:
            _record_columns(recs, n, True)
    except _COLUMN_ERRORS as exc:
        for lineno, rec in zip(linenos, recs):
            try:
                _record_columns([rec], n, True)
            except _COLUMN_ERRORS as one:
                raise ParseError(
                    f"line {lineno}: malformed record: {one!r}") from one
        raise ParseError(f"malformed records: {exc!r}") from exc
    # every record holds the keys it was read by, so only extras remain
    if set().union(*recs) - set(_RECORD_KEYS):
        for lineno, rec in zip(linenos, recs):
            unknown = set(rec) - set(_RECORD_KEYS)
            if unknown:
                raise ParseError(f"line {lineno}: record has unknown keys "
                                 f"{sorted(unknown)}")
    stages, at = np.unique(ks, return_inverse=True)
    scheduled = np.array([plane_schedule(k) if k >= 1 else 0
                          for k in stages.tolist()], dtype=np.int64)[at]
    _reject_first(linenos, {
        "indices must be >= 1": (ks < 1) | (ls < 1) | (ms < 1),
        "non-finite number": ~(np.isfinite(ts) & np.isfinite(base).all(axis=1)
                               & np.isfinite(lifted).all(axis=1)),
        "non-positive radius": ts <= 0,
        "plane index m is not the stage's scheduled plane": ms != scheduled})
    depth = int(stages[-1])
    if len(stages) != depth:
        gap = int(np.argmax(stages != np.arange(1, len(stages) + 1))) + 1
        raise ParseError(f"stage {gap} has no records (stages 1..{depth})")
    try:
        family = HoleFamily(**settings, ks=ks, levels=ls, base_centers=base,
                            ts=ts)
    except ValueError as exc:           # too few epsilons for the stages
        raise ParseError(f"line 1: {exc}") from exc
    _reject_first(linenos, {"lifted_center is not the lift (x, a_m(x) + 2t)":
                            (family.lifted_centers.view(np.int64)
                             != lifted.view(np.int64)).any(axis=1)})
    return family
