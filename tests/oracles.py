"""Brute-force references for the ball index: every point against every
ball, every ball against every other, with the index's exact arithmetic."""
import numpy as np

from porous.geometry import PAIR_SLACK


def brute_contains_any(points, centers, radii):
    points = np.atleast_2d(points)
    out = np.zeros(len(points), dtype=bool)
    for c, r in zip(centers, radii):
        out |= ((points - c) ** 2).sum(axis=1) < r**2
    return out


def brute_pairs(centers, radii):
    """Pairs i < j with |c_i - c_j| < r_i + r_j + PAIR_SLACK, in (i, j)
    order."""
    first, second = [], []
    for i in range(len(radii)):
        d2 = ((centers[i] - centers[i + 1:]) ** 2).sum(axis=1)
        j = i + 1 + np.flatnonzero(d2 < (radii[i] + radii[i + 1:]
                                         + PAIR_SLACK) ** 2)
        first.append(np.full(len(j), i))
        second.append(j)
    if not first:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return (np.concatenate(first).astype(np.int64),
            np.concatenate(second).astype(np.int64))
