import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from porous import SamplingBudget, substream, unit_ball_volume
from porous.sampling import (Z99, bernoulli_half_width, sample_shell,
                             shell_edges, stratified_ball_integral,
                             stratified_ball_mean)


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
    val, hw, _ = stratified_ball_integral(
        lambda pts: np.ones(len(pts)), np.zeros(3), 1.0, vol, 0,
        SamplingBudget(8, 32))
    assert val == pytest.approx(vol, rel=1e-12)
    assert hw <= 1e-9


def test_budget_scaled_multiplies_per_stratum():
    b = SamplingBudget(8, 32)
    assert b.scaled(4) == SamplingBudget(8, 128)
    assert b.total == 256


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
