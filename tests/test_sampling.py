import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from oracles import (grid_union_oracle, list_seeded_substream,
                     one_ball_stratified_mean, unsplit_sample_shell)
from porous import (Ball, BallIndex, SamplingBudget, sampling, substream,
                    unit_ball_volume)
from porous.sampling import (Z99, bernoulli_half_width, sample_shell,
                             sample_shells, shell_edges,
                             stratified_ball_integral,
                             stratified_ball_integrals, stratified_ball_mean,
                             stratified_ball_means)


def test_substream_is_reproducible():
    a = substream(7, "x", 3).uniform(size=8)
    b = substream(7, "x", 3).uniform(size=8)
    assert np.array_equal(a, b)


def test_substream_distinct_keys_decorrelate():
    a = substream(7, "x", 3).uniform(size=64)
    b = substream(7, "x", 4).uniform(size=64)
    c = substream(8, "x", 3).uniform(size=64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=2, max_value=6))
def test_shell_edges_monotone_and_span(strata, n):
    edges = shell_edges(2.0, strata, n)
    assert edges[0] == 0.0
    assert math.isclose(edges[-1], 2.0, rel_tol=1e-12)
    assert np.all(np.diff(edges) > 0)


@given(st.integers(min_value=2, max_value=32),
       st.integers(min_value=3, max_value=5))
def test_shell_edges_equal_volume_strata(strata, n):
    edges = shell_edges(1.0, strata, n)
    vols = edges[1:] ** n - edges[:-1] ** n
    assert np.allclose(vols, vols[0], rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_sample_shell_points_land_in_shell(seed):
    rng = substream(seed, "shell")
    center = np.array([0.5, -1.0, 2.0])
    pts = sample_shell(rng, center, 0.3, 0.7, 256)
    rho = np.linalg.norm(pts - center, axis=1)
    assert pts.shape == (256, 3)
    assert np.all(rho >= 0.3) and np.all(rho <= 0.7)


def test_sample_shell_full_ball_mean_near_center():
    rng = substream(0, "ball")
    center = np.zeros(3)
    pts = sample_shell(rng, center, 0.0, 1.0, 20000)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.02


def test_stratified_mean_constant_is_exact():
    val, hw, count = stratified_ball_mean(
        lambda pts: np.full(len(pts), 2.5), np.zeros(3), 1.0, 0,
        SamplingBudget(8, 32))
    assert val == pytest.approx(2.5, abs=1e-12)
    assert hw == pytest.approx(0.0, abs=1e-9)
    assert count == 8 * 32


def test_stratified_mean_matches_exact_average_of_rho():
    # E |x| over the unit ball in R^3 is 3/4
    val, hw, _ = stratified_ball_mean(
        lambda pts: np.linalg.norm(pts, axis=1), np.zeros(3), 1.0, 0,
        SamplingBudget(32, 256))
    assert abs(val - 0.75) <= max(hw, 5e-3)


def test_stratified_mean_depends_only_on_seed_and_key():
    args = (lambda pts: pts[:, 0] ** 2, np.zeros(3), 1.0)
    a = stratified_ball_mean(*args, 3, SamplingBudget(8, 64), key=("k",))
    b = stratified_ball_mean(*args, 3, SamplingBudget(8, 64), key=("k",))
    c = stratified_ball_mean(*args, 3, SamplingBudget(8, 64), key=("other",))
    assert a == b
    assert a != c


def test_stratified_integral_unit_ball_volume():
    vol = unit_ball_volume(3)
    budget = SamplingBudget(8, 32)
    est = stratified_ball_integral(lambda pts: np.ones(len(pts)),
                                   Ball(np.zeros(3), 1.0), 0, budget)
    assert est.value == pytest.approx(vol, rel=1e-12)
    assert est.half_width <= 1e-9
    # a varying integrand: its mean times the ball's volume, bit for bit
    ball = Ball([0.2, -0.1, 0.4], 0.3)
    est = stratified_ball_integral(lambda pts: np.abs(_wavy(pts)), ball, 5,
                                   budget, key=("k",))
    mean, hw, _ = stratified_ball_mean(lambda pts: np.abs(_wavy(pts)),
                                       ball.center, ball.radius, 5, budget,
                                       key=("k",))
    assert (est.value, est.half_width) == (mean * ball.volume(),
                                           hw * ball.volume())
    assert est.method == "monte_carlo" and est.sample_count == budget.total


def _union_estimate(balls, region, budget):
    """Measure of the balls' union inside the region, with its 99%
    half-width: the stratified mean of ``BallIndex.contains_any``."""
    index = BallIndex(np.array([b.center for b in balls]),
                      np.array([b.radius for b in balls]))
    mean, hw, _ = stratified_ball_mean(
        lambda pts: index.contains_any(pts).astype(float),
        region.center, region.radius, 0, budget, key=("union",))
    return mean * region.volume(), hw * region.volume()


def test_stratified_union_interval_covers_the_grid_on_two_overlapping_balls():
    region = Ball([0.0, 0.0, 0.0], 1.5)
    balls = [Ball([0.15, 0.0, 0.0], 0.5), Ball([-0.15, 0.0, 0.0], 0.5)]
    value, hw = _union_estimate(balls, region, SamplingBudget(32, 512))
    oracle, err = grid_union_oracle(balls, region, res=128)
    assert abs(value - oracle) <= hw + err


def test_stratified_union_against_dense_grid_fifty_balls():
    rng = substream(42, "fifty")
    region = Ball([0.5, 0.5, 0.5], 0.9)
    balls = [Ball(rng.uniform(0.2, 0.8, 3), rng.uniform(0.02, 0.12))
             for _ in range(50)]
    value, hw = _union_estimate(balls, region, SamplingBudget(64, 1024))
    oracle, err = grid_union_oracle(balls, region, res=256)
    assert abs(value - oracle) <= hw + err


def test_budget_scaled_multiplies_per_stratum():
    b = SamplingBudget(8, 32)
    assert b.scaled(4) == SamplingBudget(8, 128)
    assert b.total == 256
    # a derived budget may pass the setting's maximum of 2^12
    top = SamplingBudget(8, 2**12).scaled(4)
    assert (top.strata, top.per_stratum, top.total) == (8, 2**14, 2**17)


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        SamplingBudget(0, 32)
    with pytest.raises(ValueError):
        SamplingBudget(8, 0)


def test_bernoulli_half_width():
    assert bernoulli_half_width(0.5, 100) == Z99 * math.sqrt(0.25 / 100)
    # the variance floor keeps a width at the ends of the interval
    assert bernoulli_half_width(0.0, 4096) == Z99 * math.sqrt(1e-12 / 4096)
    assert bernoulli_half_width(1.0, 4096) == bernoulli_half_width(0.0, 4096)


# ---------------------------------------------------------------------------
# streams and batched means against the unbatched code
# ---------------------------------------------------------------------------

_KEY_PART = st.one_of(
    st.integers(min_value=2**32, max_value=2**80),
    st.integers(max_value=-1, min_value=-2**80),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    st.text(max_size=6),
    st.sampled_from(["", "é", "ß∂", "漢字", "🙂x"]))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-2**70, max_value=2**70),
       st.lists(_KEY_PART, max_size=5))
def test_substream_matches_the_list_seeded_stream(seed, key):
    got = substream(seed, *key).random(4)
    want = list_seeded_substream(seed, *key).random(4)
    assert np.array_equal(got, want)


def test_substream_rejects_other_key_types():
    with pytest.raises(TypeError):
        substream(0, 1.5)


def _same_stream(rng, want):
    assert rng.bit_generator.state == want.bit_generator.state
    assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))
    assert np.array_equal(rng.random(5), want.random(5))


def _stratified_streams(seed, strata, keys):
    """The streams of a stratified call, as ``[ball][stratum]``."""
    rngs = list(sampling._ball_generators(seed, strata, keys))
    assert len(rngs) == len(keys) * strata
    return [rngs[b * strata:(b + 1) * strata] for b in range(len(keys))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-2**70, max_value=2**70),
       st.lists(st.lists(_KEY_PART, max_size=8), max_size=12))
def test_substreams_match_the_list_seeded_streams(seed, keys):
    # keys of mixed word counts, from none to many more than the pool's 4,
    # alone and as the ball keys of one stratified call
    for key in keys:
        _same_stream(substream(seed, *key), list_seeded_substream(seed, *key))
    for key, rngs in zip(keys, _stratified_streams(seed, 2, keys)):
        for j, rng in enumerate(rngs):
            _same_stream(rng, list_seeded_substream(seed, "stratum", j, *key))


def test_substreams_cover_the_edge_keys_in_one_call():
    keys = [(), (0,), (2**32,), (2**64 - 1,), ("",),
            (np.int64(-5), np.uint32(7), np.int8(3)),
            ("a part of many more words than the pool",),
            ("stratum", 31, "residue-energy", 2**40 + 3)]
    for key, rngs in zip(keys, _stratified_streams(11, 3, keys)):
        _same_stream(substream(11, *key), list_seeded_substream(11, *key))
        for j, rng in enumerate(rngs):
            _same_stream(rng, list_seeded_substream(11, "stratum", j, *key))
            _same_stream(_stratified_streams(11, 3, [key])[0][j],
                         substream(11, "stratum", j, *key))


@pytest.mark.parametrize("bad", [1.5, b"x", None, (1,)])
def test_substreams_reject_other_key_types(bad):
    with pytest.raises(TypeError):
        substream(0, "x", bad)
    with pytest.raises(TypeError):
        stratified_ball_means(lambda pts, owner: pts[:, 0], np.zeros((2, 3)),
                              [0.1, 0.2], 0, SamplingBudget(2, 4),
                              [("fine", 1), ("x", bad)])


def _seed_sequence_pools(words):
    return np.array([np.random.SeedSequence(row).pool for row in words],
                    dtype=np.uint32).reshape(len(words), 4)


@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5, 24, 49, 64, 65, 71])
def test_pool_hash_is_seed_sequences_pool(width):
    # the pool of prefix + rest is the prefix's pool with rest absorbed,
    # for every prefix past the pool fill
    rng = np.random.default_rng(width)
    for first in range(4, 11):
        words = rng.integers(0, 2**32, size=(6, first + width),
                             dtype=np.uint32)
        words[1] = words[0]                     # a repeated row
        words[2, -1:] = 0                       # edge words
        words[3, -1:] = 2**32 - 1
        prefix, rest = words[:, :first], words[:, first:]
        assert np.array_equal(
            sampling._absorb(_seed_sequence_pools(prefix), rest, first),
            _seed_sequence_pools(words))


def test_pools_keep_input_order_across_word_counts():
    # ball keys of every word count 0 to 30, interleaved, so each word
    # count's pass scatters into balls that are not contiguous
    widths = [7 * i % 31 for i in range(62)]
    keys = [tuple(range(i, i + w)) for i, w in enumerate(widths)]
    for key, rngs in zip(keys, _stratified_streams(6, 3, keys)):
        for j, rng in enumerate(rngs):
            _same_stream(rng, substream(6, "stratum", j, *key))


def test_stratified_streams_follow_the_stratum_count():
    # the cached stratum pools are keyed by the seed and the stratum count
    seed, keys = 2**50 + 17, [("a",), (), (2**40, "b")]
    for strata in (8, 32, 8):
        for key, rngs in zip(keys, _stratified_streams(seed, strata, keys)):
            assert len(rngs) == strata
            for j, rng in enumerate(rngs):
                _same_stream(rng, substream(seed, "stratum", j, *key))


# PCG64 state and first four raw outputs of three streams, as numpy 2.4's
# SeedSequence seeds them: integers only, so the same on every CPU.  A
# change in numpy's seeding that the list-seeded oracle follows still
# fails here.
PINNED_STREAMS = [
    ((0, "stratum", 3, "residue", 17),
     0x3EB3A58543759C4D00534C6AEF77F166, 0xE05270676094DA12B5765966589DA7AF,
     [0x9919FA383FDC51DB, 0x955813B3E0BFC0CF, 0xFF8E62DE0CB2325D,
      0x38AF2A2066F4E110]),
    ((0, "pack", 1, 2, 0),
     0x29DEB122FB1BABDEAEDEF776A9C4D5C9, 0x2A1DB1590D9F69CA64B10E299B32684F,
     [0xD314259E706986A0, 0xFA712378BA154DB4, 0x22C6998BBFA70E77,
      0xFB5EEF3369C47286]),
    ((7, "corpus", "plane", 0xFEDCBA9876543210),
     0x0AECAE4D85025A01737F351FC51BEB65, 0x7BC26F53A9747047E4F6B400B108C051,
     [0x9CE1CB841CD60DE2, 0xACBCC23B8C0162FE, 0x24E91E43D8D5F914,
      0x2E4DD9592ACC7156]),
]


def _assert_pinned(rng, state, inc, raw):
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}
    assert rng.bit_generator.random_raw(4).tolist() == raw


@pytest.mark.parametrize("pinned", PINNED_STREAMS, ids=lambda p: p[0][1])
def test_streams_are_pinned_bytes(pinned):
    (seed, *key), state, inc, raw = pinned
    _assert_pinned(substream(seed, *key), state, inc, raw)


def test_stratified_streams_are_pinned_bytes():
    # the stream of ball ("residue", 17), stratum 3, as calls of five
    # strata derive it, alone and among other ball keys
    (seed, _, j, *key), state, inc, raw = PINNED_STREAMS[0]
    for others in ([], [("other", 2**33)],
                   [(), ("a longer neighbour key", 2**40)] * 3):
        rngs = _stratified_streams(seed, 5, [*others, tuple(key)])
        _assert_pinned(rngs[-1][j], state, inc, raw)


def test_sample_shell_matches_the_unsplit_draw():
    for n in range(1, 6):
        center = np.linspace(-1.0, 1.0, n)
        got = sample_shell(substream(n, "shell"), center, 0.1, 0.3, 40)
        want = unsplit_sample_shell(substream(n, "shell"), center, 0.1, 0.3,
                                    40)
        assert np.array_equal(got, want)


def test_sample_shells_rows_match_sample_shell():
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(5, 3))
    r_in, r_out = rng.uniform(0.0, 0.1, 5), rng.uniform(0.2, 1.0, 5)
    keys = [("row", 0, "é"), (), (2**64 - 1, "a part past the pool"),
            ("row", np.int64(3)), ("row", 4, "é")]
    pts = sample_shells(9, keys, centers, r_in[:, None], r_out[:, None], 33)
    assert pts.shape == (5, 33, 3)
    for b in range(5):
        assert np.array_equal(pts[b], sample_shell(
            substream(9, *keys[b]), centers[b], r_in[b], r_out[b], 33))
    # a scalar radius serves every row
    full = sample_shells(9, keys, centers, 0.0, r_out[:, None], 33)
    assert np.array_equal(full[2], sample_shell(
        substream(9, *keys[2]), centers[2], 0.0, r_out[2], 33))


def _wavy(pts):
    return np.sin(7.0 * pts).sum(axis=1) * (pts[:, 0] > pts[:, -1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("block", [1, 100, 1000, sampling.SAMPLE_BLOCK])
def test_batched_means_equal_the_one_ball_mean(monkeypatch, n, block):
    monkeypatch.setattr(sampling, "SAMPLE_BLOCK", block)
    rng = np.random.default_rng(n)
    balls = 7
    centers = rng.normal(size=(balls, n))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), balls))
    keys = [("wavy", int(rng.integers(0, 2**40)), "ключ"[:i])
            for i in range(balls)]
    budget = SamplingBudget(int(rng.integers(1, 9)),
                            int(rng.integers(2, 40)))
    owners = []

    def fn(pts, owner):
        owners.append(owner)
        return _wavy(pts) * (1.0 + owner)

    got = stratified_ball_means(fn, centers, radii, 11, budget, keys)
    per_call = max(1, block // budget.total)
    assert [len(o) for o in owners] == [
        budget.total * min(per_call, balls - lo)
        for lo in range(0, balls, per_call)]
    for b in range(balls):
        def one(pts, b=b):
            return _wavy(pts) * (1.0 + b)
        single = stratified_ball_mean(one, centers[b], radii[b], 11, budget,
                                      key=keys[b])
        assert got[b] == single
        assert single == one_ball_stratified_mean(
            one, centers[b], radii[b], 11, budget, key=keys[b])


def test_batched_means_match_the_one_ball_mean_across_key_widths():
    # ball keys of different word counts in one call: integers past 32
    # bits take two words, strings one per byte
    keys = [(2**32,), ("a",), (), ("a much longer string part", 7),
            (2**64 - 1, "é"), (5,), ("ключ", 2**40 + 3, "")]
    centers = np.random.default_rng(4).normal(size=(len(keys), 3))
    radii = np.linspace(0.05, 0.8, len(keys))
    budget = SamplingBudget(5, 8)
    got = stratified_ball_means(lambda pts, owner: _wavy(pts), centers,
                                radii, 13, budget, keys)
    for b, key in enumerate(keys):
        assert got[b] == one_ball_stratified_mean(
            _wavy, centers[b], radii[b], 13, budget, key=key)


@pytest.mark.parametrize("radii, keys", [
    ([0.1, 0.2, 0.3], [("a",), ("b",)]),          # an extra radius
    ([0.1], [("a",), ("b",)]),                    # a radius short
    ([0.1, 0.2], [("a",), ("b",), ("c",)]),       # an extra key
    ([0.1, 0.2], [("a",)]),                       # a key short
])
def test_batched_means_check_the_argument_lengths(radii, keys):
    with pytest.raises(ValueError, match="2 balls"):
        stratified_ball_means(lambda pts, owner: pts[:, 0], np.zeros((2, 3)),
                              radii, 0, SamplingBudget(2, 4), keys)


def test_batched_means_check_the_integrand_shape():
    with pytest.raises(ValueError):
        stratified_ball_means(lambda pts, owner: np.ones(3), np.zeros((2, 3)),
                              [1.0, 1.0], 0, SamplingBudget(2, 4),
                              [("a",), ("b",)])
    assert stratified_ball_means(lambda pts, owner: pts[:, 0],
                                 np.zeros((0, 3)), [], 0,
                                 SamplingBudget(2, 4), []) == []


def test_batched_integrals_are_the_means_times_each_volume():
    centers = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.2]])
    radii = np.array([0.3, 0.05])
    budget = SamplingBudget(4, 16)
    keys = [("a",), ("b", 2)]

    def fn(pts, owner):
        return np.abs(_wavy(pts)) * (1.0 + owner)

    means = stratified_ball_means(fn, centers, radii, 3, budget, keys)
    got = stratified_ball_integrals(fn, centers, radii, 3, budget, keys)
    for (mean, hw, count), r, est in zip(means, radii.tolist(), got):
        vol = Ball(np.zeros(3), r).volume()
        assert (est.value, est.half_width, est.sample_count) == (
            mean * vol, hw * vol, count)
