"""Slow or superseded references the tests compare the package against.

* the ball index: every point against every ball, every ball against
  every other, with the index's exact arithmetic;
* the greedy packing as first written: every close pair of the whole pool
  listed by the ball index, then one pass in pool order;
* sampling as it was before batching: the list-seeded ``substream``,
  ``sample_shell`` drawing and placing in one step, and the one-ball
  stratified mean, ``sample_truncated_P`` placing one point per
  ``sample_shell`` call, and the sampled sup drawing and evaluating one
  stratum at a time;
* union grids: the counting oracle of union measures, and the same count
  evaluating every ball on every grid point;
* bump kernels as first written, gathering the support with a boolean
  mask and scattering the result back: ``analysis.bump_field`` and
  ``surfaces.BumpSpec``;
* hole classification as first written: one residue region and one
  single-ball estimate per hit hole;
* the hit scan before its early exits: the probe lattice and every
  descent round for each hole the prefilter leaves;
* residue disjointness as it was once also sampled: probes of each hit
  hole's residue region tested against every other hit hole's;
* the hit verdict of a plane field in closed form: the distance from each
  lifted centre to the graph;
* the family writer as first written: one ``json.dumps`` per record.
"""
import json
import math

import numpy as np

from porous.bounds import RESIDUE_GRAD_CAP
from porous.construction import FORMAT_VERSION, plane_schedule
from porous.errors import AuditFailure, NeedsMoreSamples, PreconditionError
from porous.geometry import PAIR_SLACK, Ball, BallIndex, unit_ball_volume
from porous.sampling import (Z99, sample_shell, shell_edges,
                             stratified_ball_integral, substream)
from porous.surfaces import unit_lattice
from porous.verification import (HIT_LATTICE, HIT_MARGIN, HIT_SCAN_BLOCK,
                                 REFINE_ITERS, REFINE_SHRINK, HitScan,
                                 HoleClassification)


def brute_contains_any(points, centers, radii):
    """Open-union membership, the radius squared as the index squares it:
    ``r * r``, not a scalar ``r**2``, which libm's ``pow`` may round one
    ulp apart."""
    points = np.atleast_2d(points)
    out = np.zeros(len(points), dtype=bool)
    for c, r in zip(centers, radii):
        out |= ((points - c) ** 2).sum(axis=1) < r * r
    return out


def brute_members(points, centers, radii):
    """Pairs (point, ball) with the point inside the open ball, sorted by
    point, then ball, and their squared distances; squared as
    ``brute_contains_any`` squares."""
    points = np.atleast_2d(points)
    sq = np.zeros((len(points), len(radii)))
    for j, c in enumerate(centers):
        sq[:, j] = ((points - c) ** 2).sum(axis=1)
    q, j = np.nonzero(sq < np.asarray(radii, dtype=float) ** 2)
    return q.astype(np.int64), j.astype(np.int64), sq[q, j]


def brute_pairs(centers, radii):
    """Pairs i < j with |c_i - c_j| < r_i + r_j + PAIR_SLACK, in (i, j)
    order, and their squared distances."""
    first, second, sq = [], [], []
    for i in range(len(radii)):
        d2 = ((centers[i] - centers[i + 1:]) ** 2).sum(axis=1)
        near = np.flatnonzero(d2 < (radii[i] + radii[i + 1:]
                                    + PAIR_SLACK) ** 2)
        first.append(np.full(len(near), i))
        second.append(i + 1 + near)
        sq.append(d2[near])
    if not first:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), \
            np.zeros(0)
    return (np.concatenate(first).astype(np.int64),
            np.concatenate(second).astype(np.int64), np.concatenate(sq))


def greedy_by_pairs(pool, min_sep):
    """Greedy prefix of the pool with pairwise separation >= min_sep,
    from the list of every close pair of the pool."""
    if len(pool) == 0:
        return pool
    index = BallIndex(pool, np.full(len(pool), min_sep / 2.0))
    first, second, sq = index.pairs()
    close = sq < min_sep * min_sep
    order = np.argsort(second[close], kind="stable")
    keep = [True] * len(pool)
    # by ascending later point, so each earlier point's fate is already final
    for a, b in zip(first[close][order].tolist(),
                    second[close][order].tolist()):
        if keep[a]:
            keep[b] = False
    return pool[np.array(keep)]


def list_seeded_substream(seed, *key):
    """``sampling.substream`` as first written: the key list handed to
    ``SeedSequence`` as Python ints, one per byte of a string part."""
    material = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            material.extend(part.encode())
        elif isinstance(part, (int, np.integer)):
            material.append(int(part) & 0xFFFFFFFFFFFFFFFF)
        else:
            raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def unsplit_sample_shell(rng, center, r_inner, r_outer, count):
    """``sampling.sample_shell`` drawing and placing in one step."""
    n = center.size
    d = rng.standard_normal((count, n))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    np.maximum(norms, 1e-300, out=norms)
    d /= norms
    u = rng.random(count)
    rho = (r_inner**n + u * (r_outer**n - r_inner**n)) ** (1.0 / n)
    return center + d * rho[:, None]


def pointwise_sample_truncated_P(tp, count, seed, max_tries=200):
    """``construction.sample_truncated_P`` drawing and placing each point
    with its own one-point ``sample_shell`` call."""
    fam = tp.family
    eligible = np.flatnonzero(2.0 * fam.ts < 1.0 / tp.depth)
    radii = fam.L * fam.ts[eligible]
    weights = radii ** (fam.n + 1)
    weights = weights / weights.sum()
    rng = substream(seed, "sample-P")
    out = []
    have = 0
    for _ in range(max_tries):
        picks = rng.choice(len(eligible), size=count, p=weights)
        for pick in picks:
            hid = eligible[pick]
            out.append(sample_shell(rng, fam.lifted_centers[hid], 0.0,
                                    fam.L * fam.ts[hid], 1))
        pts = np.vstack(out)
        keep = pts[tp.contains(pts)]
        if len(keep) >= count:
            return keep[:count]
        out = [keep]
        have = len(keep)
    raise NeedsMoreSamples(
        f"could not sample {count} points of the truncated set "
        f"(have {have})")


def one_ball_stratified_mean(fn, center, radius, seed, budget, key=()):
    """The per-ball stratified mean before batching: one shell draw per
    stratum, concatenated, evaluated in one call."""
    center = np.asarray(center, dtype=float)
    edges = shell_edges(radius, budget.strata, center.size)
    m = budget.per_stratum
    pts = np.concatenate([
        unsplit_sample_shell(list_seeded_substream(seed, "stratum", j, *key),
                             center, edges[j], edges[j + 1], m)
        for j in range(budget.strata)])
    by_stratum = np.asarray(fn(pts), dtype=float).reshape(budget.strata, m)
    means = by_stratum.mean(axis=1)
    variances = by_stratum.var(axis=1, ddof=1)
    var_of_mean = variances.sum() / (budget.strata**2 * m)
    return float(means.mean()), float(Z99 * np.sqrt(var_of_mean)), \
        budget.total


def per_stratum_sampled_sup(fn, b, seed, budget):
    """``analysis._sampled_sup`` before batching: the centre value, then
    one substream, shell draw and ``fn`` call per stratum."""
    best = float(np.max(fn(b.center[None, :])))
    edges = shell_edges(b.radius, budget.strata, b.dim)
    for j in range(budget.strata):
        rng = substream(seed, "sup", j)
        pts = sample_shell(rng, b.center, edges[j], edges[j + 1],
                           budget.per_stratum)
        best = max(best, float(np.max(fn(pts))))
    return best


def dense_grid_union_oracle(balls, region, res):
    """Grid volume of the union of ``balls`` inside ``region`` on res^3
    cell centres, plus the volume of cells within half a cell diagonal of
    its boundary; every ball is evaluated on every grid point."""
    lo = region.center - region.radius
    h = 2.0 * region.radius / res
    steps = h * (np.arange(res) + 0.5)
    half_diag = h * math.sqrt(3.0) / 2.0
    X, Y = np.meshgrid(lo[0] + steps, lo[1] + steps, indexing="ij")
    flat = np.stack([X.ravel(), Y.ravel()], axis=1)
    inside = straddle = 0
    for z in lo[2] + steps:
        pts = np.concatenate([flat, np.full((len(flat), 1), z)], axis=1)
        signed = np.full(len(pts), np.inf)
        for b in balls:
            d = np.linalg.norm(pts - b.center, axis=1) - b.radius
            np.minimum(signed, d, out=signed)
        signed = np.maximum(
            signed,
            np.linalg.norm(pts - region.center, axis=1) - region.radius)
        inside += int((signed < 0.0).sum())
        straddle += int((np.abs(signed) < half_diag).sum())
    return inside * h ** 3, straddle * h ** 3


def grid_union_oracle(balls, region, res):
    """``dense_grid_union_oracle``, evaluating each ball only on
    the grid points of its bounding box widened by half a cell diagonal
    (and one more cell against rounding).  A point outside that box lies
    more than half a diagonal outside the ball, where the ball changes
    neither the inside count nor the straddle count."""
    lo = region.center - region.radius
    h = 2.0 * region.radius / res
    steps = h * (np.arange(res) + 0.5)
    half_diag = h * math.sqrt(3.0) / 2.0
    axes = [lo[i] + steps for i in range(3)]
    boxes = []
    for b in balls:
        reach = b.radius + half_diag + h
        spans = [np.flatnonzero(np.abs(ax - c) <= reach)
                 for ax, c in zip(axes, b.center)]
        if all(len(span) for span in spans):
            boxes.append((b, *(slice(span[0], span[-1] + 1)
                               for span in spans)))
    inside = straddle = 0
    for iz, z in enumerate(axes[2]):
        signed = np.full((res, res), np.inf)
        for b, sx, sy, sz in boxes:
            if not sz.start <= iz < sz.stop:
                continue
            X, Y = np.meshgrid(axes[0][sx], axes[1][sy], indexing="ij")
            pts = np.stack([X.ravel(), Y.ravel(), np.full(X.size, z)],
                           axis=1)
            d = np.linalg.norm(pts - b.center, axis=1) - b.radius
            np.minimum(signed[sx, sy], d.reshape(X.shape),
                       out=signed[sx, sy])
        ix, iy = np.nonzero(np.isfinite(signed))
        pts = np.stack([axes[0][ix], axes[1][iy], np.full(len(ix), z)],
                       axis=1)
        near = np.maximum(
            signed[ix, iy],
            np.linalg.norm(pts - region.center, axis=1) - region.radius)
        inside += int((near < 0.0).sum())
        straddle += int((np.abs(near) < half_diag).sum())
    return inside * h ** 3, straddle * h ** 3


def gathered_bump_field(center, radius, amplitude):
    """``analysis.bump_field``'s (fn, grad_fn) as first written."""
    center = np.asarray(center, dtype=float)

    def fn(pts):
        pts = np.atleast_2d(pts)
        q = ((pts - center) ** 2).sum(axis=1) / radius**2
        out = np.zeros(pts.shape[0])
        inside = q < 1.0
        out[inside] = amplitude * np.exp(1.0 + 1.0 / (q[inside] - 1.0))
        return out

    def grad_fn(pts):
        pts = np.atleast_2d(pts)
        delta = pts - center
        q = (delta**2).sum(axis=1) / radius**2
        out = np.zeros_like(pts)
        inside = q < 1.0
        scale = np.zeros(pts.shape[0])
        scale[inside] = (-2.0 * amplitude / radius**2
                         * np.exp(1.0 + 1.0 / (q[inside] - 1.0))
                         / (q[inside] - 1.0) ** 2)
        out[inside] = scale[inside, None] * delta[inside]
        return out

    return fn, grad_fn


def gathered_bump_spec_values(spec, pts):
    """``surfaces.BumpSpec.values`` as first written."""
    u = (np.atleast_2d(pts) - np.array(spec.center)) / spec.width
    rho2 = (u**2).sum(axis=1)
    out = np.zeros(len(u))
    m = rho2 < 1.0
    out[m] = spec.amplitude * (1.0 - rho2[m]) ** 3
    return out


def gathered_bump_spec_gradients(spec, pts):
    """``surfaces.BumpSpec.gradients`` as first written."""
    pts = np.atleast_2d(pts)
    d = pts - np.array(spec.center)
    rho2 = (d**2).sum(axis=1) / spec.width**2
    out = np.zeros_like(pts)
    m = rho2 < 1.0
    out[m] = (-6.0 * spec.amplitude / spec.width**2
              * (1.0 - rho2[m])[:, None] ** 2 * d[m])
    return out


def residue_region(family, hole_id, patch, budget, seed=0, key=()):
    """One hole's residue region, checked and sampled on its own: the
    primed ball, the t/4 threshold, the indicator of the points where the
    field leaves the plane band, and the sampled measure."""
    if patch.c1_bound > RESIDUE_GRAD_CAP + 1e-12:
        raise PreconditionError("field exceeds the residue C1 ceiling")
    t = float(family.ts[hole_id])
    primed = Ball(family.base_centers[hole_id], family.E * t)
    window = family.window
    slack = window.radius - np.linalg.norm(primed.center - window.center) \
        - primed.radius
    if slack < -1e-9:
        raise AuditFailure(f"primed ball of hole {hole_id} leaves the window")
    plane = family.plane(int(family.ks[hole_id]))
    threshold = t / 4.0

    def indicator(pts):
        pts = np.atleast_2d(pts)
        return np.abs(patch.values(pts) - plane.heights(pts)) > threshold

    return primed, threshold, indicator, stratified_ball_integral(
        lambda pts: indicator(pts).astype(float), primed, seed, budget,
        key=("residue", hole_id, *key))


def per_hole_classify_holes(family, k, patch, hit_ids, budget, seed=0):
    """``verification.classify_holes`` hole by hole: an algebraic d for
    every hole of a stage with eps_k * E^n < 1, else a ``residue_region``
    estimate, escalated once at 4x budget when it straddles."""
    eps_k = float(family.epsilons[k - 1])
    wn = unit_ball_volume(family.n)
    algebraic = eps_k * family.E ** family.n < 1.0
    u_ids, d_ids, indet, escal = [], [], [], []
    measures = {}
    for hole_id in np.asarray(hit_ids, dtype=np.int64):
        hole_id = int(hole_id)
        t = float(family.ts[hole_id])
        vol_b = wn * t**family.n
        if algebraic:
            d_ids.append(hole_id)
            measures[hole_id] = None
            continue
        est = residue_region(family, hole_id, patch, budget, seed)[-1]
        if vol_b <= eps_k * est.lower():
            u_ids.append(hole_id)
        elif vol_b > eps_k * est.upper():
            d_ids.append(hole_id)
        else:
            est = residue_region(family, hole_id, patch, budget.scaled(4),
                                 seed, key=("escalated",))[-1]
            escal.append(hole_id)
            if vol_b <= eps_k * est.lower():
                u_ids.append(hole_id)
            elif vol_b > eps_k * est.upper():
                d_ids.append(hole_id)
            else:
                indet.append(hole_id)
        measures[hole_id] = est
    return HoleClassification(
        k=k, hit_ids=tuple(int(i) for i in hit_ids),
        u_ids=tuple(u_ids), d_ids=tuple(d_ids),
        indeterminate_ids=tuple(indet), escalated_ids=tuple(escal),
        residue_measures=measures)


def full_hit_scan(g, family, ids, K, *, prefilter=True):
    """``verification.graph_hit_scan`` before its early exits: the probe
    lattice and all ``REFINE_ITERS`` descent rounds for every hole the
    prefilter leaves, witnessed or not; with ``prefilter`` off, the
    exhaustive scan of every hole that the scan's verdicts must match."""
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
    if prefilter:
        v0 = np.abs(g.values(x) - h)
        lower = v0 / math.sqrt(1.0 + rho * rho) - K * t
        pre = lower > HIT_MARGIN
        gap[pre] = lower[pre]
    todo = np.flatnonzero(~pre)
    if len(todo) == 0:
        return HitScan(ids, hit, gap, pre)

    # the axis lattice of [-1,1]^n inside the unit ball; includes 0
    offs = unit_lattice(n, HIT_LATTICE) * 2.0 - 1.0
    offs = offs[(offs**2).sum(axis=1) <= 1.0 + 1e-12]
    per = max(1, HIT_SCAN_BLOCK // len(offs))
    eye = np.eye(n)
    steps = np.vstack([eye, -eye])
    for lo in range(0, len(todo), per):
        sub = todo[lo:lo + per]
        radius = K * t[sub]
        probes = x[sub, None, :] + radius[:, None, None] * offs[None]
        flat = probes.reshape(-1, n)
        vals = g.values(flat).reshape(len(sub), -1)
        horiz = np.linalg.norm(probes - x[sub, None, :], axis=2)
        phi = np.hypot(horiz, vals - h[sub, None]) - radius[:, None]
        best_phi = phi.min(axis=1)
        best = probes[np.arange(len(sub)), phi.argmin(axis=1)]
        step = radius * (2.0 / (HIT_LATTICE - 1))
        for _ in range(REFINE_ITERS):
            cand = best[:, None, :] + step[:, None, None] * steps[None]
            rel = cand - x[sub, None, :]
            nrm = np.linalg.norm(rel, axis=2)
            over = nrm > radius[:, None]
            if over.any():   # project wanderers back onto the probe disc
                scale = np.where(over, radius[:, None] / np.maximum(nrm, 1e-300), 1.0)
                cand = x[sub, None, :] + rel * scale[:, :, None]
            cvals = g.values(cand.reshape(-1, n)).reshape(len(sub), -1)
            chor = np.linalg.norm(cand - x[sub, None, :], axis=2)
            cphi = np.hypot(chor, cvals - h[sub, None]) - radius[:, None]
            cbest = cphi.min(axis=1)
            better = cbest < best_phi
            if better.any():
                pick = cphi.argmin(axis=1)
                best[better] = cand[better, pick[better]]
                best_phi = np.minimum(best_phi, cbest)
            step = step * REFINE_SHRINK
        gap[sub] = best_phi
        hit[sub] = best_phi <= HIT_MARGIN
    return HitScan(ids, hit, gap, pre)


def sampled_shared_probes(family, k, patch, hit_ids, seed=0,
                          probes_per_hole=128):
    """The sampled residue-disjointness pass.

    Each hit hole draws ``probes_per_hole`` points of its closed primed
    ball from ``substream(seed, "disjoint", k, h)`` and keeps those where
    the field leaves its t/4 band around the stage plane; a kept probe
    inside another hit hole's open primed ball and outside that hole's
    band lies in both residue regions.  Returns, per pair (lower id,
    higher id), the first such probe, the holes taken in order.  A probe
    in both primed balls puts the centres less than E(t_i + t_j) apart,
    so only overlapping primed balls can share one.
    """
    hit_ids = np.asarray(hit_ids, dtype=np.int64)
    plane = family.plane(k)
    x = family.base_centers[hit_ids]
    t = family.ts[hit_ids]
    rad = family.E * t
    probes = np.vstack([
        sample_shell(substream(seed, "disjoint", k, int(hole)), x[pos], 0.0,
                     rad[pos], probes_per_hole)
        for pos, hole in enumerate(hit_ids)] or [np.zeros((0, family.n))])
    owner = np.repeat(np.arange(len(hit_ids)), probes_per_hole)
    off = np.abs(patch.values(probes) - plane.heights(probes))
    kept = off > t[owner] / 4.0
    probes, owner, off = probes[kept], owner[kept], off[kept]
    # the other hit holes whose open primed ball holds a kept probe, in
    # probe order, and of those the ones whose residue region holds it
    at, other, _ = BallIndex(x, rad).members(probes)
    both = (other != owner[at]) & (off[at] > t[other] / 4.0)
    shared = {}
    for p, o in zip(at[both].tolist(), other[both].tolist()):
        pair = sorted((int(hit_ids[owner[p]]), int(hit_ids[o])))
        shared.setdefault(tuple(pair), probes[p])
    return shared


def affine_hits(gradient, offset, anchor, family, ids, K):
    """The exact hit verdicts of the plane g(x) = offset + <gradient,
    x - anchor> at K: the graph meets the hole's K-ball within the scan's
    margin when the lifted centre's distance to it, |g(x) - h| /
    sqrt(1 + |grad g|^2), is at most K t + HIT_MARGIN.  Returns the
    verdicts and each hole's slack, that distance less K t + HIT_MARGIN."""
    ids = np.asarray(ids, dtype=np.int64)
    gradient = np.asarray(gradient, dtype=float)
    x = family.base_centers[ids]
    h = family.lifted_centers[ids][:, family.n]
    g = offset + (x - anchor) @ gradient
    dist = np.abs(g - h) / math.sqrt(1.0 + float(gradient @ gradient))
    slack = dist - (K * family.ts[ids] + HIT_MARGIN)
    return slack <= 0.0, slack


def per_record_serialize_family(family):
    """``construction.serialize_family`` writing each record with its own
    ``json.dumps`` call."""
    header = {
        "format_version": FORMAT_VERSION,
        "n": family.n,
        "s": family.s,
        "r": family.r,
        "L": family.L,
        "E": family.E,
        "epsilons": list(family.epsilons),
        "seed": family.seed,
        "config_hash": family.config_hash,
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    order = np.lexsort((np.arange(len(family)), family.levels, family.ks))
    for i in order:
        rec = {
            "k": int(family.ks[i]),
            "l": int(family.levels[i]),
            "m": plane_schedule(int(family.ks[i])),
            "base_center": [float(v) for v in family.base_centers[i]],
            "t": float(family.ts[i]),
            "lifted_center": [float(v) for v in family.lifted_centers[i]],
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"
