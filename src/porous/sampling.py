"""Seeded stratified sampling with a shared confidence model.

Every estimator in the package draws points through this module so that all
audits share one error model: deterministic per-stratum substreams, equal
volume radial strata over balls, and two-sided 99% normal-approximation
intervals.  Streams are keyed by (seed, label, indices), never by call
order, so sweeps can be chunked or parallelised without changing a single
sampled coordinate.

Drawing is split from placing: ``shell_draws`` takes a stream's Gaussian
directions and radial uniforms, and ``place_shell`` maps any stack of such
draws into their shells in one array operation.  ``stratified_ball_means``
uses the split to estimate many balls at once: each (ball, stratum) point
set still comes from its own substream, and the integrand is evaluated on
runs of whole balls, in the caller's order, of at most ``SAMPLE_BLOCK``
points, so per-call overhead is paid once per run instead of once per ball.
``stratified_ball_mean`` is its one-ball case.  Every sampled ball
integral's ``MeasureEstimate`` is made here, as mean times volume.

A stream is ``PCG64`` seeded through numpy's ``SeedSequence`` from the
words of its key.  ``substreams`` derives the streams of many keys at
once: ``SeedSequence`` still mixes each key's pool, the seed words of all
pools are hashed in one array operation, and each generator is made from
its words as it is taken.  ``substream`` is its one-key case, and
``sample_shells``, and so every batched sampler, draws through it; no
other module makes a numpy stream.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import Ball, MeasureEstimate, unit_ball_volume

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


# the largest seed: seeds and integer key parts reduce to 64 bits
SEED_MAX = 2**64 - 1


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    splits an int entropy entry (zero is the single word 0)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _entropy(seed: int, key: Sequence) -> np.ndarray:
    """The uint32 words ``SeedSequence`` would split the key list
    ``[seed, *key]`` into: a string part bytewise, an integer part
    reduced to 64 bits."""
    words = _words(int(seed) & SEED_MAX)
    for part in key:
        if isinstance(part, str):
            words.extend(part.encode())
        elif isinstance(part, (int, np.integer)):
            words.extend(_words(int(part) & SEED_MAX))
        else:
            raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")
    return np.array(words, dtype=np.uint32)


def substream(seed: int, *key) -> np.random.Generator:
    """Generator whose stream depends only on ``(seed, key)``: the
    one-key case of ``substreams``.

    String parts are folded in bytewise; integer parts directly, reduced
    to 64 bits.  Two calls with equal keys return generators producing
    identical streams.
    """
    return next(substreams(seed, [key]))


# SeedSequence.generate_state's hash constants, INIT_B * MULT_B^i mod 2^32
# for i = 0..8: PCG64 seeds from 4 uint64, that is 8 uint32 state words,
# and word i hashes pool word i mod 4 with constants i and i + 1
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & 0xFFFFFFFF
                    for i in range(9)], dtype=np.uint32)
_XOR_B, _MUL_B = _HASH_B[:-1], _HASH_B[1:]


@functools.cache
def _seed_words_class() -> type:
    """The stand-in for ``SeedSequence`` that hands ``PCG64`` the seed
    words ``substreams`` derived for it.  Made on first use: subclassing
    numpy's ``ISeedSequence`` loads ``numpy.random``, which importing
    this module does not."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def substreams(seed: int, keys: Sequence[Sequence]
               ) -> Iterator[np.random.Generator]:
    """Each key's generator, in order: ``PCG64`` seeded, bit for bit, as
    ``SeedSequence`` of the key list ``[seed, *key]`` seeds it.

    ``SeedSequence`` gets the uint32 words it would split that list into,
    which gives the same pool without its per-entry coercion, and still
    mixes each key's 4-word pool; its ``generate_state(4, uint64)`` (per
    word: XOR with a hash constant, times the next, xorshift 16) runs once
    over every key's pool, and each ``PCG64`` is seeded from its row of
    those words.  Only the words are held; each generator is made as it
    is taken.
    """
    state = np.empty((len(keys), 8), dtype=np.uint32)
    for b, key in enumerate(keys):
        state[b, :4] = np.random.SeedSequence(_entropy(seed, key)).pool
    state[:, 4:] = state[:, :4]
    state ^= _XOR_B
    state *= _MUL_B
    state ^= state >> 16
    words = state.astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)
    seed_words = _seed_words_class()
    for row in words:
        yield np.random.Generator(np.random.PCG64(seed_words(row)))


def bernoulli_half_width(fraction: float, count: int) -> float:
    """99% normal-approximation half-width of a sampled fraction; the
    variance is floored at 1e-12 so fractions of 0 or 1 keep a width."""
    return Z99 * math.sqrt(max(fraction * (1 - fraction), 1e-12) / count)


def shell_draws(rng: np.random.Generator, d: np.ndarray,
                u: np.ndarray) -> None:
    """The random part of ``sample_shell``: fill ``d`` (``(count, n)``)
    with Gaussian directions, then ``u`` (``(count,)``) with radial
    uniforms."""
    rng.standard_normal(out=d)
    rng.random(out=u)


def _powers(radius, n: int):
    # one scalar power per radius: numpy's vectorised power rounds some
    # results differently, and the shells must not move
    if np.ndim(radius) == 0:
        return radius**n
    radius = np.asarray(radius)
    return np.array([r**n for r in radius.flat]).reshape(radius.shape)


def place_shell(d: np.ndarray, u: np.ndarray, center: np.ndarray,
                r_inner, r_outer) -> np.ndarray:
    """Map draws of ``shell_draws`` to uniform points of their shells.

    ``d`` is ``(..., count, n)`` and ``u`` is ``(..., count)``; the centre
    broadcasts against ``d`` and the radii against ``u``, so one call
    places a whole stack of streams, each point as ``sample_shell`` would.
    """
    n = d.shape[-1]
    norms = np.linalg.norm(d, axis=-1, keepdims=True)
    # standard_normal never returns an exactly zero vector in practice, but
    # guard the division anyway
    np.maximum(norms, 1e-300, out=norms)
    d = d / norms
    inner, outer = _powers(r_inner, n), _powers(r_outer, n)
    rho = (inner + u * (outer - inner)) ** (1.0 / n)
    return center + d * rho[..., None]


def sample_shell(rng: np.random.Generator, center: np.ndarray,
                 r_inner: float, r_outer: float, count: int) -> np.ndarray:
    """Uniform points in the spherical shell r_inner <= |x - center| <= r_outer."""
    d, u = np.empty((count, center.size)), np.empty(count)
    shell_draws(rng, d, u)
    return place_shell(d, u, center, r_inner, r_outer)


def sample_shells(seed: int, keys: Sequence[Sequence], centers: np.ndarray,
                  r_inner, r_outer, count: int) -> np.ndarray:
    """``(len(keys), count, n)`` shell points: row ``b`` is what
    ``sample_shell(substream(seed, *keys[b]), centers[b], ...)`` draws,
    with radii that broadcast against ``(len(keys), count)``.  The
    streams come from one ``substreams`` call, are drawn one by one and
    placed together."""
    centers = np.asarray(centers, dtype=float)
    d = np.empty((len(keys), count, centers.shape[-1]))
    u = np.empty((len(keys), count))
    for b, rng in enumerate(substreams(seed, keys)):
        shell_draws(rng, d[b], u[b])
    return place_shell(d, u, centers[:, None, :], r_inner, r_outer)


def shell_edges(radius: float, strata: int, n: int) -> np.ndarray:
    """Radii splitting a ball into ``strata`` equal-volume shells."""
    return radius * (np.arange(strata + 1) / strata) ** (1.0 / n)


# memory cap: most points per integrand call, unless one ball brings more
SAMPLE_BLOCK = 1 << 14


def stratified_ball_means(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          centers: np.ndarray, radii: np.ndarray,
                          seed: int, budget: SamplingBudget,
                          keys: Sequence[Sequence]) -> list[tuple[float, float, int]]:
    """Estimate the mean of ``fn`` over each of several balls.

    Ball ``b`` draws stratum ``j`` from ``substream(seed, "stratum", j,
    *keys[b])``, exactly as ``stratified_ball_mean`` does for one ball, and
    gets the same ``(mean, half_width, total_points)``.  Whole balls are
    evaluated together, in runs of the given order holding at most
    ``SAMPLE_BLOCK`` points (and at least one ball).
    ``fn`` maps an ``(m, n)`` array of points and the ``(m,)`` index of
    each point's ball to ``(m,)`` values; ``fn`` must evaluate each point
    independently of the others.
    """
    radii = np.asarray(radii, dtype=float)
    centers = np.asarray(centers, dtype=float)
    count, n = centers.shape
    strata, m = budget.strata, budget.per_stratum
    unit_edges = shell_edges(1.0, strata, n)
    out = [None] * count
    per_block = max(1, SAMPLE_BLOCK // budget.total)
    for lo in range(0, count, per_block):
        balls = np.arange(lo, min(lo + per_block, count))
        # radius * unit edge is the product shell_edges(radius) forms
        edges = radii[balls, None] * unit_edges
        pts = sample_shells(
            seed, [("stratum", j, *keys[b])
                   for b in balls.tolist() for j in range(strata)],
            np.repeat(centers[balls], strata, axis=0),
            edges[:, :-1].reshape(-1, 1), edges[:, 1:].reshape(-1, 1),
            m).reshape(-1, n)
        vals = np.asarray(fn(pts, np.repeat(balls, budget.total)),
                          dtype=float)
        if vals.shape != (len(pts),):
            raise ValueError("integrand must return one value per point")
        by_stratum = vals.reshape(len(balls), strata, m)
        means = by_stratum.mean(axis=2)
        variances = by_stratum.var(axis=2, ddof=1)
        # equal-volume strata: each shell carries weight 1/strata
        mean = means.mean(axis=1)
        var_of_mean = variances.sum(axis=1) / (strata**2 * m)
        half = Z99 * np.sqrt(var_of_mean)
        for b, a, h in zip(balls.tolist(), mean, half):
            out[b] = (float(a), float(h), budget.total)
    return out


def stratified_ball_mean(fn: Callable[[np.ndarray], np.ndarray],
                         center: np.ndarray, radius: float,
                         seed: int, budget: SamplingBudget,
                         key: Sequence = ()) -> tuple[float, float, int]:
    """Estimate the mean of ``fn`` over a ball.

    Returns ``(mean, half_width, total_points)`` where the half-width is the
    99% two-sided normal-approximation interval for the mean.  ``fn`` maps an
    ``(m, n)`` array of points to ``(m,)`` values.  Every stratum is drawn
    up front and evaluated in one call, so expensive integrands amortise
    their per-call overhead.
    """
    return stratified_ball_means(lambda pts, _: fn(pts), [center], [radius],
                                 seed, budget, [tuple(key)])[0]


def _integral(mean: float, half_width: float, count: int,
              volume: float) -> MeasureEstimate:
    return MeasureEstimate(mean * volume, half_width * volume, "monte_carlo",
                           count)


def stratified_ball_integral(fn: Callable[[np.ndarray], np.ndarray],
                             ball: Ball, seed: int, budget: SamplingBudget,
                             key: Sequence = ()) -> MeasureEstimate:
    """Estimate the integral of a non-negative ``fn`` over a ball: its
    ``stratified_ball_mean`` times the ball's volume."""
    return _integral(*stratified_ball_mean(fn, ball.center, ball.radius,
                                           seed, budget, key), ball.volume())


def stratified_ball_integrals(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                              centers: np.ndarray, radii: np.ndarray,
                              seed: int, budget: SamplingBudget,
                              keys: Sequence[Sequence]) -> list[MeasureEstimate]:
    """``stratified_ball_means`` of a non-negative ``fn``, each times its
    ball's volume ω_n r^n."""
    means = stratified_ball_means(fn, centers, radii, seed, budget, keys)
    n = np.shape(centers)[1]
    wn = unit_ball_volume(n)
    return [_integral(*est, wn * r ** n)
            for est, r in zip(means, np.asarray(radii, dtype=float).tolist())]
