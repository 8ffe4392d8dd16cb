"""Seeded stratified sampling with a shared confidence model.

Every estimator in the package draws points through this module so that all
audits share one error model: deterministic per-stratum substreams, equal
volume radial strata over balls, and two-sided 99% normal-approximation
intervals.  Streams are keyed by (seed, label, indices), never by call
order, so sweeps can be chunked or parallelised without changing a single
sampled coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Two-sided 99% quantile of the standard normal distribution.
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class SamplingBudget:
    """Point budget for one stratified estimate."""

    strata: int = 32
    per_stratum: int = 128

    def __post_init__(self) -> None:
        if self.strata < 1 or self.per_stratum < 2:
            raise ValueError("budget needs strata >= 1 and per_stratum >= 2")

    @property
    def total(self) -> int:
        return self.strata * self.per_stratum

    def scaled(self, factor: int) -> "SamplingBudget":
        return SamplingBudget(self.strata, self.per_stratum * factor)


def substream(seed: int, *key) -> np.random.Generator:
    """Generator whose stream depends only on ``(seed, key)``.

    String parts are folded in bytewise; integer parts directly.  Two calls
    with equal keys return generators producing identical streams.
    """
    material = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            material.extend(part.encode())
        elif isinstance(part, (int, np.integer)):
            material.append(int(part) & 0xFFFFFFFFFFFFFFFF)
        else:
            raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))


def bernoulli_half_width(fraction: float, count: int) -> float:
    """99% normal-approximation half-width of a sampled fraction; the
    variance is floored at 1e-12 so fractions of 0 or 1 keep a width."""
    return Z99 * math.sqrt(max(fraction * (1 - fraction), 1e-12) / count)


def sample_shell(rng: np.random.Generator, center: np.ndarray,
                 r_inner: float, r_outer: float, count: int) -> np.ndarray:
    """Uniform points in the spherical shell r_inner <= |x - center| <= r_outer."""
    n = center.size
    d = rng.standard_normal((count, n))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    # standard_normal never returns an exactly zero vector in practice, but
    # guard the division anyway
    np.maximum(norms, 1e-300, out=norms)
    d /= norms
    u = rng.random(count)
    rho = (r_inner**n + u * (r_outer**n - r_inner**n)) ** (1.0 / n)
    return center + d * rho[:, None]


def shell_edges(radius: float, strata: int, n: int) -> np.ndarray:
    """Radii splitting a ball into ``strata`` equal-volume shells."""
    return radius * (np.arange(strata + 1) / strata) ** (1.0 / n)


def stratified_ball_mean(fn: Callable[[np.ndarray], np.ndarray],
                         center: np.ndarray, radius: float,
                         seed: int, budget: SamplingBudget,
                         key: Sequence = ()) -> tuple[float, float, int]:
    """Estimate the mean of ``fn`` over a ball.

    Returns ``(mean, half_width, total_points)`` where the half-width is the
    99% two-sided normal-approximation interval for the mean.  ``fn`` maps an
    ``(m, n)`` array of points to ``(m,)`` values.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    edges = shell_edges(radius, budget.strata, n)
    m = budget.per_stratum
    # draw every stratum up front and evaluate in one call: streams are
    # keyed per stratum, so the coordinates match a stratum-by-stratum loop,
    # and expensive integrands amortise their per-call overhead
    pts = np.concatenate([
        sample_shell(substream(seed, "stratum", j, *key), center,
                     edges[j], edges[j + 1], m)
        for j in range(budget.strata)])
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != (budget.strata * m,):
        raise ValueError("integrand must return one value per point")
    by_stratum = vals.reshape(budget.strata, m)
    means = by_stratum.mean(axis=1)
    variances = by_stratum.var(axis=1, ddof=1)
    # equal-volume strata: each shell carries weight 1/strata
    mean = means.mean()
    var_of_mean = variances.sum() / (budget.strata**2 * m)
    return float(mean), float(Z99 * np.sqrt(var_of_mean)), budget.total


def stratified_ball_integral(fn: Callable[[np.ndarray], np.ndarray],
                             center: np.ndarray, radius: float, ball_volume: float,
                             seed: int, budget: SamplingBudget,
                             key: Sequence = ()) -> tuple[float, float, int]:
    """Estimate the integral of ``fn`` over a ball of known volume."""
    mean, hw, total = stratified_ball_mean(fn, center, radius, seed, budget, key)
    return mean * ball_volume, hw * ball_volume, total
