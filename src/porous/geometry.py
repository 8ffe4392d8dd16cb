"""Core geometric types and the ball index.

Open balls, constant-slope height functions ("planes"), scalar fields over
ball domains, the measure estimates every audit consumes, and the cell-list
index behind every point-in-ball question.  Dimension conventions: base
points live in R^n, lifted points in R^(n+1); the cross section weight of
a lifted ball is the volume of its n-dimensional shadow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# Row kernels for (m, n) point arrays.  numpy runs a broadcast (m, n) by
# (n,) operation as m inner loops of n numbers, which is slow for the small
# n used here, so these work column by column; each matches the plain
# expression bit for bit.

def displacements(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``pts - center`` as a C-ordered array."""
    out = np.empty(pts.shape)
    for j in range(pts.shape[1]):
        np.subtract(pts[:, j], center[j], out=out[:, j])
    return out


def sq_norms(d: np.ndarray) -> np.ndarray:
    """``(d**2).sum(axis=1)`` for a C-ordered ``d``.

    numpy adds a row of fewer than 8 entries left to right, which adding
    the squared columns in order reproduces; longer rows keep the
    reduction's pairwise order.
    """
    if d.shape[1] >= 8:
        return (d**2).sum(axis=1)
    out = np.square(d[:, 0])
    col = np.empty_like(out)
    for j in range(1, d.shape[1]):
        out += np.square(d[:, j], out=col)
    return out


def sq_dists(a: np.ndarray, i: np.ndarray, b: np.ndarray,
             j: np.ndarray) -> np.ndarray:
    """``((a.T[i] - b.T[j]) ** 2).sum(axis=1)`` for points stored
    column-major, ``a`` and ``b`` each of shape (dim, m).

    Each axis is gathered as a 1-D column and the squares are added axis
    by axis in ``sq_norms``' summation order, so every entry matches the
    plain expression bit for bit, and ``np.sqrt`` of it matches
    ``np.linalg.norm(..., axis=1)``, which is computed that way.
    """
    if len(a) >= 8:
        return sq_norms(a.T[i] - b.T[j])
    d = a[0][i] - b[0][j]
    out = d * d
    for ax in range(1, len(a)):
        d = a[ax][i] - b[ax][j]
        out += np.square(d, out=d)
    return out


def run_starts(x: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the sorted array x starts: the
    ``return_index`` of ``np.unique(x)``, without its sort."""
    start = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=start[1:])
    return np.flatnonzero(start)


def scale_rows(scale: np.ndarray, d: np.ndarray,
               where: np.ndarray) -> np.ndarray:
    """``scale[:, None] * d`` on the rows ``where`` selects, +0.0 on the
    others."""
    out = np.zeros(d.shape)
    for j in range(d.shape[1]):
        np.multiply(scale, d[:, j], out=out[:, j], where=where)
    return out


def _as_point(p) -> np.ndarray:
    arr = np.array(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError("point must be one-dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ball:
    """Open ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _as_point(self.center))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ball)
                and self.radius == other.radius
                and np.array_equal(self.center, other.center))

    def __hash__(self) -> int:
        return hash((tuple(self.center), self.radius))

    def __repr__(self) -> str:
        return f"Ball(center={tuple(self.center)}, radius={self.radius})"


@dataclass(frozen=True, eq=False)
class AffinePlane:
    """Constant-slope height function a(x) = offset + <gradient, x - anchor>.

    Embeds into R^(n+1) as x |-> (x, a(x)).  The anchor fixes where the
    offset is read; the construction anchors at the window centre.
    """

    index: int
    gradient: np.ndarray
    offset: float
    anchor: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gradient", _as_point(self.gradient))
        object.__setattr__(self, "anchor", _as_point(self.anchor))
        if self.gradient.size != self.anchor.size:
            raise ValueError("gradient and anchor dimensions differ")
        if self.index < 1:
            raise ValueError("plane index is 1-based")

    @property
    def dim(self) -> int:
        return self.gradient.size

    @property
    def slope(self) -> float:
        return float(np.linalg.norm(self.gradient))

    def heights(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.offset + (pts - self.anchor) @ self.gradient


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar field over a ball domain with a certified gradient bound.

    ``fn`` maps an (m, n) array to (m,) values and ``grad_fn`` to the
    (m, n) gradients.  A composed field adds ``joint_fn``, which returns
    both from one pass: its ``fn`` and ``grad_fn`` are that pass asked for
    one half, which a values call computes alone, so the bytes agree.
    """

    domain: Ball
    fn: Callable[[np.ndarray], np.ndarray]
    grad_bound: float
    grad_fn: Callable[[np.ndarray], np.ndarray]
    label: str = "field"
    joint_fn: Optional[Callable[[np.ndarray],
                                tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self) -> None:
        if not (self.grad_bound >= 0 and math.isfinite(self.grad_bound)):
            raise ValueError("grad_bound must be finite and >= 0")

    def _checked(self, out, shape: tuple, what: str) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise ValueError(f"{what} {self.label!r} returned shape {out.shape}")
        return out

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._checked(self.fn(pts), (pts.shape[0],), "field")

    def gradients(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._checked(self.grad_fn(pts), pts.shape, "grad of")

    def values_and_gradients(self, points: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """``(values(points), gradients(points))``, from one ``joint_fn``
        pass where the field has one."""
        if self.joint_fn is None:
            return self.values(points), self.gradients(points)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals, grads = self.joint_fn(pts)
        return (self._checked(vals, (pts.shape[0],), "field"),
                self._checked(grads, pts.shape, "grad of"))


@dataclass(frozen=True)
class MeasureEstimate:
    """A measured value with a 99% confidence half-width."""

    value: float
    half_width: float
    method: str
    sample_count: int = 0

    def __post_init__(self) -> None:
        if self.value < 0 or self.half_width < 0:
            raise ValueError("estimate and half-width must be >= 0")
        if self.method not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "exact" and self.half_width != 0:
            raise ValueError("exact estimates carry zero half-width")

    def lower(self) -> float:
        return max(0.0, self.value - self.half_width)

    def upper(self) -> float:
        return self.value + self.half_width


# ---------------------------------------------------------------------------
# ball index: membership and neighbour pairs
# ---------------------------------------------------------------------------

# candidate (query, ball) entries examined at once: the build benchmark
# read a median peak RSS of 50 MB and 0.112 s per operation at 2^13,
# 51 MB and 0.110 s at 2^15, and 62 MB and 0.136 s at 2^18 (three
# --seconds 6 runs each, 2 cores, numpy 2.4.6)
INDEX_BLOCK = 1 << 15
PAIR_SLACK = 1e-6       # absolute; above every pair caller's tolerance
# relative widening of a query's reach: only the caller's exact test decides
REACH_SLACK = 1e-9
# axes the grid reads, a ball taking up to 2 cells per gridded axis.  Demo
# points have 3 axes (base) or 4 (lifted), so every demo index grids all.
# The demo config at n = 8 took 142 s of CPU and 1.25 GB gridding its 9
# lifted axes, 8.0 s and 109 MB gridding 4 (2 cores, numpy 2.4.6)
INDEX_AXES = 4

# odd int64 multipliers of the linear cell hash, one per gridded axis:
# powers of the 64-bit golden-ratio constant 0x9E3779B97F4A7C15, wrapping
_CELL_HASH = np.cumprod(np.full(INDEX_AXES, -0x61C8864680B583EB,
                                dtype=np.int64))


class BallIndex:
    """Cell-list index over a ball family (Allen & Tildesley's cell list).

    The grid's cell size is twice the largest radius plus ``PAIR_SLACK``,
    over the first ``INDEX_AXES`` axes of each point.  Each ball is
    registered in every cell that its box of half-width
    ``r + PAIR_SLACK / 2`` meets, at most 2 per gridded axis, and the
    registrations are sorted once by cell hash and ball.  A point inside a
    ball lies in the ball's box, so a point query looks up, with
    ``searchsorted``, its own cell alone.  Two balls closer than
    ``PAIR_SLACK`` to touching have overlapping boxes, so they share a
    cell, and the pair query tests each registration against every later
    one of its cell; a pair sharing several cells is found in each, and
    the repeats are dropped.  Cell hashes wrap in int64, less the low bits
    that hold the ball; a collision only adds candidates.  So do the axes
    the grid leaves out: every candidate is tested exactly, over all axes.
    Candidates are examined in chunks of at most ``INDEX_BLOCK`` entries.

    The centres are stored column-major, ``cols`` a contiguous (dim, m)
    array, beside the squared radii ``sq_radii``.  Each candidate's squared
    distance comes from ``sq_dists``, which adds the squares axis by axis:
    left to right below 8 axes and in numpy's reduction order from 8 up,
    the order in which ``((p - c) ** 2).sum(axis=1)`` sums a row, so every
    verdict is that expression's; the queries return it with each pair.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        radii = np.asarray(radii, dtype=float)
        if centers.shape[0] != radii.shape[0]:
            raise ValueError("centers and radii length mismatch")
        if not (radii > 0).all():     # NaN fails too
            raise ValueError("all radii must be positive")
        self.cols = np.ascontiguousarray(centers.T)
        self.radii = radii
        self.sq_radii = radii ** 2
        self.cell = 2.0 * float(radii.max(initial=0.0)) + PAIR_SLACK
        half = (radii + PAIR_SLACK / 2.0)[:, None]
        lo = self._cells(centers - half)
        span = self._cells(centers + half) - lo
        dim = lo.shape[1]
        grid = np.indices((int(span.max(initial=0)) + 1,) * dim
                          ).reshape(dim, -1).T
        ball, g = np.nonzero((grid[None] <= span[:, None]).all(axis=2))
        # one int64 per registration, the cell hash with its low bits
        # replaced by the ball, so that a plain sort orders by (hash, ball)
        self._bits = len(radii).bit_length()
        packed = np.sort((self._hash(lo)[ball] + self._hash(grid)[g])
                         >> self._bits << self._bits | ball)
        # a ball meeting two cells of one hash is registered there once
        self._keys, self._ball = np.divmod(packed[run_starts(packed)],
                                           1 << self._bits)
        # occupied cell hashes: first registration and registration count
        self._start = run_starts(self._keys)
        self._cell_keys = self._keys[self._start]
        self._count = np.diff(self._start, append=len(self._keys))

    def _cells(self, pts: np.ndarray) -> np.ndarray:
        # clipping is monotone, so it keeps every point inside the cell
        # range of the boxes that contain it
        return np.clip(np.floor(pts[:, :INDEX_AXES] / self.cell),
                       -2.0**62, 2.0**62).astype(np.int64)

    def _hash(self, cells: np.ndarray) -> np.ndarray:
        return (cells * _CELL_HASH[:cells.shape[1]]).sum(axis=1)

    def _slots(self, first: np.ndarray, count: np.ndarray):
        """Yield ``(row, slot)`` chunks of at most ``INDEX_BLOCK`` entries
        listing, row by row, the registration slots ``first[row]`` up to
        ``first[row] + count[row] - 1``."""
        ends = np.cumsum(count)
        before = ends - count      # entries of the rows before each
        total = int(ends[-1]) if len(ends) else 0
        for chunk in range(0, total, INDEX_BLOCK):
            stop = min(chunk + INDEX_BLOCK, total)
            rows = np.arange(np.searchsorted(ends, chunk, side="right"),
                             np.searchsorted(ends, stop - 1, side="right")
                             + 1)
            row = np.repeat(rows, np.minimum(ends[rows], stop)
                            - np.maximum(before[rows], chunk))
            yield row, first[row] + np.arange(chunk, stop) - before[row]

    def _hits(self, pts: np.ndarray):
        """Yield chunks of the candidate ``(point, ball)`` pairs, in (point,
        ball) order, with their squared distances and whether the point
        lies in the open ball: each point looks up the balls registered in
        its own cell."""
        if len(self._cell_keys) == 0:
            return
        keys = self._hash(self._cells(pts)) >> self._bits
        at = np.minimum(np.searchsorted(self._cell_keys, keys),
                        len(self._cell_keys) - 1)
        count = np.where(self._cell_keys[at] == keys, self._count[at], 0)
        for q, slot in self._slots(self._start[at], count):
            j = self._ball[slot]
            d = sq_dists(pts.T, q, self.cols, j)
            yield q, j, d, d < self.sq_radii[j]

    def contains_any(self, points: np.ndarray) -> np.ndarray:
        """Open-union membership of an (m, dim) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0], dtype=bool)
        for q, _, _, hit in self._hits(pts):
            out[q[hit]] = True
        return out

    def members(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """The ``(point, ball)`` index pairs with the point inside the open
        ball, sorted by point, then ball, and each pair's squared distance
        by ``sq_dists``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
        found += [(q[hit], j[hit], d[hit])
                  for q, j, d, hit in self._hits(pts)]
        return tuple(map(np.concatenate, zip(*found)))

    def pairs(self) -> tuple[np.ndarray, ...]:
        """Ball pairs ``i < j`` with ``|c_i - c_j| < r_i + r_j + PAIR_SLACK``,
        sorted by ``(i, j)``, and each pair's squared distance by
        ``sq_dists``.  A superset of the overlapping pairs: callers apply
        their own exact tests and tolerances."""
        n = len(self.radii)
        codes = [np.zeros(0, dtype=np.int64)]
        # each registration with every later one of its cell hash, where
        # the balls ascend
        slot = np.arange(len(self._keys))
        last = np.repeat(self._start + self._count, self._count)
        for row, other in self._slots(slot + 1, last - slot - 1):
            i, j = self._ball[row], self._ball[other]
            near = sq_dists(self.cols, i, self.cols, j) \
                < (self.radii[i] + self.radii[j] + PAIR_SLACK) ** 2
            codes.append(i[near] * n + j[near])
        # a pair is found once in each cell its balls share
        codes = np.sort(np.concatenate(codes))
        first, second = np.divmod(codes[run_starts(codes)], max(n, 1))
        return first, second, sq_dists(self.cols, first, self.cols, second)


def contains_any(points: np.ndarray, centers: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Open-union membership of points in a family given as arrays."""
    return BallIndex(centers, radii).contains_any(points)


# ---------------------------------------------------------------------------
# finite-dimensional porosity pullback
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PorosityWitness:
    """A hole direction certifying porosity at a point: the ball of the
    given radius at (point + step * direction) misses the set."""

    direction: np.ndarray
    step: float
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "direction", _as_point(self.direction))
        if self.radius <= 0:
            raise ValueError("witness radius must be positive")
        norm = float(np.linalg.norm(self.direction))
        if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError("witness direction must be a unit vector")

    def hole_center(self, point: np.ndarray) -> np.ndarray:
        return np.asarray(point, dtype=float) + self.step * self.direction


def pullback_porosity_witness(matrix: np.ndarray,
                              witness: PorosityWitness) -> PorosityWitness:
    """Pull a hole witness back through a surjection onto R^(n+1).

    ``matrix`` maps a higher-dimensional space onto the ambient space of the
    witness; the preimage of the hole under the map contains a ball around
    the pulled-back centre of radius ``witness.radius`` over the matrix's
    spectral norm.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    ambient, source = mat.shape
    if source <= ambient:
        raise ValueError("matrix must map a strictly higher-dimensional space")
    if witness.direction.size != ambient:
        raise ValueError("witness dimension does not match matrix rows")
    if np.linalg.matrix_rank(mat) < ambient:
        raise ValueError("matrix is not surjective")
    pre = np.linalg.pinv(mat) @ witness.direction
    residual = float(np.linalg.norm(mat @ pre - witness.direction))
    if residual > 1e-9:
        raise ValueError(f"right inverse failed, residual {residual:.2e}")
    operator_norm = float(np.linalg.norm(mat, 2))
    scale = float(np.linalg.norm(pre))
    return PorosityWitness(direction=pre / scale,
                           step=witness.step * scale,
                           radius=witness.radius / operator_norm)
