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

A stream is ``PCG64`` seeded by numpy's ``SeedSequence`` of the words of
its key, and ``substream`` makes it exactly so; no other module makes a
numpy stream.  ``stratified_ball_means`` keys stratum ``j`` of a ball by
``(seed, "stratum", j, *key)`` and derives those streams in two levels:
``SeedSequence`` pools of the stratum prefixes, cached per seed and
stratum count, and one ``_absorb`` pass per word count of the ball keys.
Past its first four words ``SeedSequence`` mixes each word into the pool
with constants that depend only on the word's position, so the pool of a
prefix and a key is ``_absorb`` of the prefix's pool; that step is the one
part of numpy's hash written here, and every stream stays bit for bit.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import conform_fields, setting
from .geometry import Ball, MeasureEstimate, unit_ball_volume

# Two-sided 99% quantile of the standard normal distribution.
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class SamplingBudget:
    """Point budget for one stratified estimate."""

    # bounded together, as their product is the points an estimate holds:
    # 2^16 strata of 128 points end the demo build in an _ArrayMemoryError
    # traceback under a 1 GiB address-space cap.  Measured at both
    # maxima, 2^20 points, under that cap: the demo build takes 10 s of CPU
    # and 228 MB, its cover audit 5.3 s and 224 MB, and its budget and
    # hole-mass audits of shipped plane 0, whose energy draws 4 times as
    # many, 1.6 s and 520 MB (220 s and 368 MB with the d-hole budget at
    # both maxima instead)
    strata: int = setting(32, type="integer", minimum=1, maximum=2**8)
    per_stratum: int = setting(128, type="integer", minimum=2,
                               maximum=2**12)

    def __post_init__(self) -> None:
        conform_fields(self)

    @property
    def total(self) -> int:
        return self.strata * self.per_stratum

    def scaled(self, factor: int) -> "SamplingBudget":
        """This budget with ``factor`` times the points per stratum; a
        derived budget is no setting, so it may pass the maximum."""
        twin = copy.copy(self)
        object.__setattr__(twin, "per_stratum", self.per_stratum * factor)
        return twin


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


def _entropy(parts: Sequence) -> list[int]:
    """The uint32 words ``SeedSequence`` would split the key list
    ``parts`` into: a string part bytewise, an integer part reduced to 64
    bits."""
    words = []
    for part in parts:
        if isinstance(part, str):
            words.extend(part.encode())
        elif isinstance(part, (int, np.integer)):
            words.extend(_words(int(part) & SEED_MAX))
        else:
            raise TypeError(f"substream key parts must be str or int, got {type(part)!r}")
    return words


def substream(seed: int, *key) -> np.random.Generator:
    """Generator whose stream depends only on ``(seed, key)``: ``PCG64``
    seeded by numpy's ``SeedSequence`` of the words of ``[seed, *key]``.

    String parts are folded in bytewise; integer parts directly, reduced
    to 64 bits.  Two calls with equal keys return generators producing
    identical streams.
    """
    words = np.array(_entropy((int(seed), *key)), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _hash_constants(init: int, mult: int, first: int, count: int
                    ) -> np.ndarray:
    """``init * mult^i mod 2^32`` for ``first <= i < first + count``."""
    return np.array([init * pow(mult, i, 2**32) & 0xFFFFFFFF
                     for i in range(first, first + count)], dtype=np.uint32)


# SeedSequence's pool hash (numpy/random/bit_generator.pyx, pool size 4):
# hashmix call c XORs a word with INIT_A * MULT_A^c, multiplies it by
# INIT_A * MULT_A^(c+1) and xorshifts it by 16.  Calls 0-15 fill and mix
# the pool from the first four words; word i >= 4 then takes calls
# 16 + 4(i - 4) + dst, one per pool word dst it is mixed into.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=128)
def _absorb_constants(first: int, width: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(width, 4)`` XOR and multiply constants of the
    hashmix calls of words ``first`` to ``first + width - 1`` of a key."""
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (first - 4), 4 * width + 1)
    a.flags.writeable = False
    return a[:-1].reshape(width, 4), a[1:].reshape(width, 4)


def _absorb(pool: np.ndarray, words: np.ndarray, first: int) -> np.ndarray:
    """``SeedSequence(prefix + rest).pool`` from ``pool``, the pools
    (``(..., 4)``) of prefixes of ``first >= 4`` words, and ``words``,
    the words ``rest`` along its last axis; the other axes broadcast.
    Past the pool fill a word is mixed into the pool with constants that
    depend only on its position, so every word is hashed in one pass and
    only the mixing runs word by word."""
    xor, mult = _absorb_constants(first, words.shape[-1])
    hashed = words[..., None] ^ xor
    hashed *= mult
    hashed ^= hashed >> 16
    hashed *= _MIX_R
    for i in range(words.shape[-1]):
        pool = pool * _MIX_L - hashed[..., i, :]
        pool ^= pool >> 16
    return pool


# SeedSequence.generate_state's hash constants, INIT_B * MULT_B^i mod 2^32
# for i = 0..8: PCG64 seeds from 4 uint64, that is 8 uint32 state words,
# and word i hashes pool word i mod 4 with constants i and i + 1
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 9)
_XOR_B, _MUL_B = _HASH_B[:-1], _HASH_B[1:]


@functools.cache
def _seed_words_class() -> type:
    """The stand-in for ``SeedSequence`` that hands ``PCG64`` the seed
    words ``_generators`` derived for it.  Made on first use: subclassing
    numpy's ``ISeedSequence`` loads ``numpy.random``, which importing
    this module does not."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _generators(pools: np.ndarray) -> Iterator[np.random.Generator]:
    """One ``PCG64`` generator per pool (``(rows, 4)``), in order, seeded
    bit for bit as ``SeedSequence`` seeds it: ``generate_state(4,
    uint64)`` (per word: XOR with a hash constant, times the next,
    xorshift 16) runs now, once over every pool, and each generator is
    made from its row of those words as it is taken.  Only the words are
    held."""
    state = np.concatenate([pools, pools], axis=1)
    state ^= _XOR_B
    state *= _MUL_B
    state ^= state >> 16
    words = state.astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)
    seed_words = _seed_words_class()
    return (np.random.Generator(np.random.PCG64(seed_words(row)))
            for row in words)


@functools.lru_cache(maxsize=64)
def _stratum_pools(seed: int, strata: int) -> tuple[np.ndarray, int]:
    """The read-only ``(strata, 4)`` ``SeedSequence`` pools of the keys
    ``(seed, "stratum", j)``, and their word count (at least nine, the
    same for every ``j``)."""
    words = np.array([_entropy((seed, "stratum", j)) for j in range(strata)],
                     dtype=np.uint32)
    pools = np.array([np.random.SeedSequence(row).pool for row in words],
                     dtype=np.uint32)
    pools.flags.writeable = False
    return pools, words.shape[1]


def _ball_generators(seed: int, strata: int, keys: Sequence[Sequence]
                     ) -> Iterator[np.random.Generator]:
    """The generator of ``substream(seed, "stratum", j, *key)`` for every
    key and stratum, ball by ball: each key is mixed into the cached
    stratum pools by one ``_absorb`` pass per word count of the keys."""
    prefix, first = _stratum_pools(int(seed), strata)
    words = [_entropy(key) for key in keys]
    by_width: dict[int, list[int]] = {}
    for b, w in enumerate(words):
        by_width.setdefault(len(w), []).append(b)
    pools = np.empty((len(keys), strata, 4), dtype=np.uint32)
    for width, balls in by_width.items():
        rows = np.array([words[b] for b in balls], dtype=np.uint32)
        pools[balls] = _absorb(prefix, rows.reshape(len(balls), 1, width),
                               first)
    return _generators(pools.reshape(-1, 4))


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


def _place(d: np.ndarray, u: np.ndarray, center: np.ndarray,
           inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``place_shell`` with the radii already raised to the ``n``-th
    power."""
    n = d.shape[-1]
    norms = np.linalg.norm(d, axis=-1, keepdims=True)
    # standard_normal never returns an exactly zero vector in practice, but
    # guard the division anyway
    np.maximum(norms, 1e-300, out=norms)
    d = d / norms
    rho = (inner + u * (outer - inner)) ** (1.0 / n)
    return center + d * rho[..., None]


def place_shell(d: np.ndarray, u: np.ndarray, center: np.ndarray,
                r_inner, r_outer) -> np.ndarray:
    """Map draws of ``shell_draws`` to uniform points of their shells.

    ``d`` is ``(..., count, n)`` and ``u`` is ``(..., count)``; the centre
    broadcasts against ``d`` and the radii against ``u``, so one call
    places a whole stack of streams, each point as ``sample_shell`` would.
    """
    n = d.shape[-1]
    return _place(d, u, center, _powers(r_inner, n), _powers(r_outer, n))


def sample_shell(rng: np.random.Generator, center: np.ndarray,
                 r_inner: float, r_outer: float, count: int) -> np.ndarray:
    """Uniform points in the spherical shell r_inner <= |x - center| <= r_outer."""
    d, u = np.empty((count, center.size)), np.empty(count)
    shell_draws(rng, d, u)
    return place_shell(d, u, center, r_inner, r_outer)


def _draws(rngs: Iterator[np.random.Generator], rows: int, count: int,
           n: int) -> tuple[np.ndarray, np.ndarray]:
    """``shell_draws`` of the next ``rows`` generators of ``rngs``, one
    after another: ``(rows, count, n)`` directions and ``(rows, count)``
    radial uniforms."""
    d, u = np.empty((rows, count, n)), np.empty((rows, count))
    for b, rng in enumerate(itertools.islice(rngs, rows)):
        shell_draws(rng, d[b], u[b])
    return d, u


def sample_shells(seed: int, keys: Sequence[Sequence], centers: np.ndarray,
                  r_inner, r_outer, count: int) -> np.ndarray:
    """``(len(keys), count, n)`` shell points: row ``b`` is what
    ``sample_shell(substream(seed, *keys[b]), centers[b], ...)`` draws,
    with radii that broadcast against ``(len(keys), count)``.  The
    streams are drawn one by one and placed together."""
    centers = np.asarray(centers, dtype=float)
    d, u = _draws((substream(seed, *key) for key in keys), len(keys), count,
                  centers.shape[-1])
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
    gets the same ``(mean, half_width, total_points)``.  Every stream of
    the call is derived up front by ``_ball_generators``, which mixes each
    ball key's words into the cached stratum pools.  Whole balls are
    evaluated together, in runs of the given order holding at most
    ``SAMPLE_BLOCK`` points (and at least one ball).  ``fn`` maps an
    ``(m, n)`` array of points and the ``(m,)`` index of each point's ball
    to ``(m,)`` values; ``fn`` must evaluate each point independently of
    the others.
    """
    radii = np.asarray(radii, dtype=float)
    centers = np.asarray(centers, dtype=float)
    count, n = centers.shape
    if len(radii) != count or len(keys) != count:
        raise ValueError(f"{count} balls need {count} radii and keys, got "
                         f"{len(radii)} radii and {len(keys)} keys")
    strata, m = budget.strata, budget.per_stratum
    unit_edges = shell_edges(1.0, strata, n)
    streams = _ball_generators(seed, strata, keys)
    out = [None] * count
    per_block = max(1, SAMPLE_BLOCK // budget.total)
    for lo in range(0, count, per_block):
        balls = np.arange(lo, min(lo + per_block, count))
        # radius * unit edge is the product shell_edges(radius) forms; each
        # edge is powered once, as the outer radius of one stratum and the
        # inner radius of the next
        powered = _powers(radii[balls, None] * unit_edges, n)
        # the draws are not bound to names, so they are freed once placed,
        # before fn runs
        pts = _place(*_draws(streams, len(balls) * strata, m, n),
                     np.repeat(centers[balls], strata, axis=0)[:, None],
                     powered[:, :-1].reshape(-1, 1),
                     powered[:, 1:].reshape(-1, 1)).reshape(-1, n)
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
