"""The in-place bump kernels against their gathering originals: every bit,
and the sign of every zero, must agree."""
import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from oracles import (gathered_bump_field, gathered_bump_spec_gradients,
                     gathered_bump_spec_values)
from porous import BumpSpec, bump_field


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@st.composite
def bump_cases(draw):
    """(center, radius, amplitude, points) with points strictly inside and
    outside the support, at the centre, exactly on the support sphere
    (q == 1, on the axes) and just inside it, shuffled so that the support
    mask alternates.  Dimensions 1-9 reach both orders of the squared-norm
    sum: left to right below 8 columns, pairwise from 8."""
    n = draw(st.integers(1, 9))
    # dyadic centre and radius: center +- radius * e_j and its difference
    # from the centre are exact, so q is exactly 1 there
    center = np.array(draw(st.lists(st.integers(-16, 16), min_size=n,
                                    max_size=n)), dtype=float) / 8.0
    radius = 2.0 ** draw(st.integers(-4, 2))
    amplitude = draw(st.sampled_from([0.0, 1.0, -1.0])
                     | st.floats(-10.0, 10.0, allow_nan=False))
    m = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.standard_normal((m, n))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    rho = rng.uniform(0.0, 2.0, m)
    axes = radius * np.eye(n)
    pts = np.concatenate([
        center + rho[:, None] * radius * d,
        center[None, :],
        center + axes, center - axes,
        center + axes * (1.0 - 2.0**-40), center + 2.0 * axes])
    return center, radius, amplitude, pts[rng.permutation(len(pts))]


@settings(max_examples=300, deadline=None)
@given(bump_cases())
def test_bump_field_matches_gathering_original(case):
    center, radius, amplitude, pts = case
    q = ((pts - center) ** 2).sum(axis=1) / radius**2
    assert (q == 1.0).any() and (q < 1.0).any() and (q > 1.0).any()
    field = bump_field(center, radius, amplitude)
    fn, grad_fn = gathered_bump_field(center, radius, amplitude)
    for p in (pts, pts[:0]):      # and no points at all
        assert _same_bits(field.values(p), fn(p))
        assert _same_bits(field.gradients(p), grad_fn(p))


@settings(max_examples=300, deadline=None)
@given(bump_cases())
def test_bump_spec_matches_gathering_original(case):
    center, width, amplitude, pts = case
    spec = BumpSpec(tuple(center), amplitude, width)
    assert ((((pts - center) / width) ** 2).sum(axis=1) == 1.0).any()
    for p in (pts, pts[:0]):      # and no points at all
        assert _same_bits(spec.values(p), gathered_bump_spec_values(spec, p))
        assert _same_bits(spec.gradients(p),
                          gathered_bump_spec_gradients(spec, p))

