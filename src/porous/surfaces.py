"""C¹ graph fields over the window ball and graph machinery.

Fields are stored analytically as an affine plane plus a sum of polynomial
bumps, so sup-norms and slope maxima have closed forms and every gradient
bound is certified rather than sampled.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError, integer, listed, real
from .geometry import (AffinePlane, Ball, MeasureEstimate, ScalarField,
                       displacements, scale_rows, sq_norms)
from .sampling import (SEED_MAX, SamplingBudget, stratified_ball_integral,
                       substream)

# max of u (1-u^2)^2 on [0,1] sits at u = 1/sqrt(5); the slope of the cubic
# bump profile is 6 A/w times that, i.e. SLOPE_FACTOR * A / w
SLOPE_FACTOR = 96.0 / (25.0 * math.sqrt(5.0))


@dataclass(frozen=True)
class BumpSpec:
    """Radial cubic bump A * (1 - |u-u0|^2 / w^2)^3, supported on |u-u0| < w."""

    center: tuple
    amplitude: float
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("bump width must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def slope_max(self) -> float:
        return SLOPE_FACTOR * abs(self.amplitude) / self.width

    # evaluated in place; masked ufuncs keep the result, and the costly
    # cube, to the support: outside it every value and gradient component
    # is +0.0
    def values(self, pts: np.ndarray) -> np.ndarray:
        u = displacements(np.atleast_2d(pts), np.array(self.center))
        u /= self.width
        s = sq_norms(u)
        m = s < 1.0
        np.subtract(1.0, s, out=s)
        np.power(s, 3, out=s, where=m)
        return np.multiply(self.amplitude, s, out=np.zeros(len(s)), where=m)

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        d = displacements(np.atleast_2d(pts), np.array(self.center))
        s = sq_norms(d)
        s /= self.width**2
        m = s < 1.0
        np.subtract(1.0, s, out=s)
        np.square(s, out=s)
        np.multiply(-6.0 * self.amplitude / self.width**2, s, out=s)
        return scale_rows(s, d, m)


def unit_lattice(n: int, per_axis: int) -> np.ndarray:
    """The ``per_axis``-point axis lattice of [0,1]^n, in C order."""
    axes = [np.linspace(0.0, 1.0, per_axis)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class GraphPatch:
    """A graph {(x, g(x))} over the window ball, with provenance."""

    g: ScalarField
    source: str
    c1_bound: float

    def __post_init__(self) -> None:
        if not (self.c1_bound >= 0 and math.isfinite(self.c1_bound)):
            raise ValueError("c1_bound must be finite and >= 0")

    @property
    def window(self) -> Ball:
        return self.g.domain


def graph_measure_in(patch: GraphPatch, target: Callable[[np.ndarray], np.ndarray],
                     budget: SamplingBudget, seed: int = 0,
                     key: Sequence = ()) -> MeasureEstimate:
    """Surface measure of the part of the graph landing in ``target``.

    Integrates the area element sqrt(1 + |grad g|^2) over base points whose
    lifted image satisfies the target predicate.
    """
    def integrand(pts: np.ndarray) -> np.ndarray:
        vals, grads = patch.g.values_and_gradients(pts)
        inside = np.asarray(target(np.hstack([pts, vals[:, None]])),
                            dtype=bool)
        jac = np.sqrt(1.0 + (grads ** 2).sum(axis=1))
        return np.where(inside, jac, 0.0)

    return stratified_ball_integral(integrand, patch.window, seed, budget,
                                    key=("graph-measure", *key))


@dataclass(frozen=True)
class MembershipVerdict:
    status: str              # member | non-member | indeterminate
    measure: MeasureEstimate
    alpha: float

    @property
    def margin(self) -> float:
        if self.status == "member":
            return self.measure.lower() - self.alpha
        if self.status == "non-member":
            return self.alpha - self.measure.upper()
        return 0.0


def sn_membership(patch: GraphPatch, target, alpha: float,
                  budget: SamplingBudget, seed: int = 0) -> MembershipVerdict:
    """Decide whether the graph meets the target in measure above alpha."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    est = graph_measure_in(patch, target, budget, seed, key=("membership",))
    if est.lower() > alpha:
        status = "member"
    elif est.upper() < alpha:
        status = "non-member"
    else:
        status = "indeterminate"
    return MembershipVerdict(status=status, measure=est, alpha=alpha)


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

# the parameters of each kind; every kind also takes c1_ceiling
CORPUS_PARAMS = {
    "plane": ("gradients", "offsets"),
    "bump": ("count", "amplitude", "width"),
    "multi-bump": ("count", "bumps", "amplitude", "width"),
    "mollified-noise": ("count", "grains", "grain_width", "strength"),
}
CORPUS_KINDS = tuple(CORPUS_PARAMS)


@dataclass(frozen=True)
class CorpusEntry:
    """One test field: its graph restriction to the window."""

    patch: GraphPatch
    kind: str


def _plane_patch(plane: AffinePlane, window: Ball, bumps: Sequence[BumpSpec],
                 label: str) -> GraphPatch:
    bumps = tuple(bumps)

    def fn(pts: np.ndarray) -> np.ndarray:
        out = plane.heights(pts)
        for b in bumps:
            out = out + b.values(pts)
        return out

    def grad(pts: np.ndarray) -> np.ndarray:
        out = np.tile(plane.gradient, (len(np.atleast_2d(pts)), 1))
        for b in bumps:
            out = out + b.gradients(pts)
        return out

    slope = plane.slope + sum(b.slope_max for b in bumps)
    # |a| over the corners of the window's cube peaks at |a(centre)| +
    # radius * |grad a|_1, the corner whose signs follow the gradient's
    sup = abs(float(plane.heights(window.center)[0])) \
        + window.radius * float(np.abs(plane.gradient).sum()) \
        + sum(abs(b.amplitude) for b in bumps)
    gfield = ScalarField(domain=window, fn=fn, grad_fn=grad,
                         grad_bound=slope, label=label)
    return GraphPatch(g=gfield, source=label, c1_bound=max(sup, slope))


def corpus_generate(kind: str, params: dict, seed: int,
                    window: Ball) -> list[CorpusEntry]:
    """Deterministic corpus of test fields with certified C¹ bounds over
    ``window``, the family's window of the run.

    params:
      plane           gradients: list of vectors; offsets: list of reals
      bump            count, amplitude: [lo, hi], width: [lo, hi]
      multi-bump      count, bumps, amplitude, width
      mollified-noise count, grains, grain_width, strength
    All kinds accept c1_ceiling (default 1/64); exceeding it is rejected.
    Numbers follow ``errors.real`` and ``errors.integer``, and a parameter
    the kind does not take is rejected.
    """
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}; "
                         f"expected one of {CORPUS_KINDS}")
    unknown = sorted(set(params) - {"c1_ceiling", *CORPUS_PARAMS[kind]})
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r}; {kind} takes "
                         + ", ".join(CORPUS_PARAMS[kind]) + ", c1_ceiling")
    n = window.dim
    ceiling = real("c1_ceiling", params.get("c1_ceiling", 1.0 / 64.0),
                   positive=True)
    anchor = window.center
    out: list[CorpusEntry] = []

    if kind == "plane":
        gradients = [np.array([real("gradients", v)
                               for v in listed("gradients", g)])
                     for g in listed("gradients", params["gradients"])]
        offsets = [real("offsets", o)
                   for o in listed("offsets", params["offsets"])]
        idx = 0
        for off in offsets:
            for grad in gradients:
                plane = AffinePlane(index=idx + 1, gradient=grad, offset=off,
                                    anchor=anchor)
                entry = CorpusEntry(_plane_patch(plane, window, (),
                                                 f"plane[{idx}]"), kind)
                _check_ceiling(entry, ceiling)
                out.append(entry)
                idx += 1
        return out

    count = integer("count", params["count"])
    if kind == "mollified-noise":
        grains = integer("grains", params.get("grains", 24))
        gw = real("grain_width", params.get("grain_width", 0.12),
                  positive=True)
        strength = real("strength", params.get("strength", ceiling / 2),
                        positive=True)
        if strength > ceiling:
            raise ValueError(f"noise strength {strength:g} exceeds the "
                             f"C¹ ceiling {ceiling:g}")
    else:   # a bump is one bump of a half-width spread
        k, spread = (integer("bumps", params.get("bumps", 3)), 1.0) \
            if kind == "multi-bump" else (1, 0.5)
        amplitude = _range("amplitude", params["amplitude"])
        width = _range("width", params["width"])
    zero = AffinePlane(index=1, gradient=np.zeros(n), offset=0.0,
                       anchor=anchor)
    for i in range(count):
        rng = substream(seed, "corpus", kind, i)
        if kind != "mollified-noise":
            bumps = []
            for _ in range(k):
                amp = rng.uniform(*amplitude) / k
                wid = rng.uniform(*width)
                center = window.center \
                    + rng.uniform(-spread, spread, n) * window.radius
                bumps.append(BumpSpec(tuple(center), amp, wid))
        else:
            raw = rng.uniform(-1.0, 1.0, grains)
            centers = (window.center
                       + rng.uniform(-1.2, 1.2, (grains, n)) * window.radius)
            # normalise so the certified bound (worst-case sums of per-grain
            # sup and slope maxima) equals the requested strength exactly
            cert = max(np.abs(raw).sum(), SLOPE_FACTOR * np.abs(raw).sum() / gw)
            scale = strength / cert
            bumps = [BumpSpec(tuple(centers[j]), float(raw[j] * scale), gw)
                     for j in range(grains)]
        entry = CorpusEntry(_plane_patch(zero, window, bumps,
                                         f"{kind}[{i}]"), kind)
        _check_ceiling(entry, ceiling)
        out.append(entry)
    return out


def _range(name: str, spec) -> tuple:
    """``spec``, the parameter ``name``: a range [lo, hi] of two finite
    reals with lo <= hi and a finite width."""
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        lo, hi = (real(name, v) for v in spec)
        if lo <= hi and math.isfinite(hi - lo):
            return lo, hi
    raise ValueError(f"{name} must be a range [lo, hi] of two finite "
                     f"numbers with lo <= hi, got {reprlib.repr(spec)}")


def _check_ceiling(entry: CorpusEntry, ceiling: float) -> None:
    if entry.patch.c1_bound > ceiling * (1 + 1e-12):
        raise ValueError(
            f"{entry.patch.source}: certified C¹ bound "
            f"{entry.patch.c1_bound:.3e} exceeds ceiling {ceiling:.3e}")


def load_corpus_spec(path) -> list[dict]:
    """Corpus spec file: JSON list of {kind, params, seed}, and no other
    key; the seed an integer in [0, SEED_MAX]."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON list of corpus groups")
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        keys = {"kind", "params", "seed"}
        missing, unknown = keys - set(item), set(item) - keys
        if missing:
            raise ParseError(f"{path}: entry {i} missing {sorted(missing)}")
        if unknown:
            raise ParseError(f"{path}: entry {i} has unknown keys "
                             f"{sorted(unknown)}")
        if not isinstance(item["params"], dict):
            raise ParseError(f"{path}: entry {i} params is not an object")
        if item["kind"] not in CORPUS_KINDS:
            raise ParseError(f"{path}: entry {i} has unknown kind "
                             f"{item['kind']!r}")
        try:
            integer("seed", item["seed"], 0, SEED_MAX)
        except ValueError as exc:
            raise ParseError(f"{path}: entry {i} {exc}") from exc
    return doc


def generate_from_spec(spec: list[dict], window: Ball
                       ) -> list[CorpusEntry]:
    """The entries of every corpus group of a spec; a group the generator
    rejects, or a spec with no group, raises ``ParseError``."""
    if not spec:
        raise ParseError("the corpus spec lists no groups")
    out = []
    for i, item in enumerate(spec):
        try:
            out.extend(corpus_generate(item["kind"], item["params"],
                                       int(item["seed"]), window=window))
        except KeyError as exc:
            raise ParseError(f"corpus entry {i} ({item['kind']}): missing "
                             f"parameter {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"corpus entry {i} ({item['kind']}): {exc}") from exc
    return out
