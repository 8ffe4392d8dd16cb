"""The row kernels against the plain numpy expressions they replace: at
every converted site, every bit and the sign of every zero must agree."""
import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from porous import analysis, sampling
from porous.analysis import convolution_nodes, mollify
from porous.geometry import (_CELL_HASH, INDEX_AXES, PAIR_SLACK,
                             AffinePlane, Ball, BallIndex, displacements,
                             fill_rows, norms, per_row, run_starts, sq_norms)
from porous.sampling import sample_shell, substream
from porous.surfaces import _plane_patch


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.int64),
        np.ascontiguousarray(want).view(np.int64))


def _values(rng, shape):
    """Normal draws over six decades, about a tenth of them ±0.0."""
    out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    zero = rng.random(shape) < 0.1
    out[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return out


@st.composite
def rows(draw, stacked=False):
    """(rng, array): dims 1-9, so that ``sq_norms`` runs both of its
    branches, and 0, 1 or up to 40 rows, optionally under a stack axis."""
    n = draw(st.integers(1, 9))
    m = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    shape = ((draw(st.integers(1, 4)),) if stacked else ()) + (m, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, _values(rng, shape)


EXAMPLES = settings(max_examples=200, deadline=None)


@EXAMPLES
@given(rows())
def test_plane_heights(case):
    rng, pts = case
    n = pts.shape[1]
    plane = AffinePlane(1, _values(rng, n), float(rng.standard_normal()),
                        _values(rng, n))
    assert _same_bits(plane.heights(pts),
                      plane.offset + (pts - plane.anchor) @ plane.gradient)


@EXAMPLES
@given(rows())
def test_norms_and_displacements(case):
    # far_fraction's window distance, the cutoff's and the ramp's norms,
    # the budget's grad_sq and grad_sup, the residue energy's grad_sq and
    # graph_measure_in's area element
    rng, d = case
    c = _values(rng, d.shape[1])
    assert _same_bits(displacements(d, c), d - c)
    assert _same_bits(sq_norms(d), (d**2).sum(axis=1))
    assert _same_bits(sq_norms(displacements(d, c)),
                      ((d - c)**2).sum(axis=1))
    assert _same_bits(norms(d), np.linalg.norm(d, axis=1))
    assert _same_bits(norms(displacements(d, c)),
                      np.linalg.norm(d - c, axis=1))
    assert _same_bits(np.sqrt(1.0 + sq_norms(d)),
                      np.sqrt(1.0 + (d ** 2).sum(axis=1)))


@EXAMPLES
@given(rows(stacked=True))
def test_stacked_norms(case):
    # the hit scan's horizontal distance from each hole's centre, and
    # its refinement's distance from the probe disc's centre
    rng, probes = case
    x = _values(rng, (probes.shape[0], probes.shape[2]))
    assert _same_bits(norms(displacements(probes, x[:, None, :])),
                      np.linalg.norm(probes - x[:, None, :], axis=2))


@EXAMPLES
@given(rows(stacked=True), st.booleans())
def test_place(case, stacked):
    # sampling._place on one stream or a stack of them, as
    # stratified_ball_means and sample_shells call it
    rng, d = case
    if not stacked:
        d = d[0]
    n = d.shape[-1]
    u = rng.random(d.shape[:-1])
    radii = np.sort(rng.random((2,) + d.shape[:-2] + (1,)) ** n, axis=0)
    center = _values(rng, d.shape[:-2] + (1, n) if stacked else n)
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    np.maximum(norm, 1e-300, out=norm)
    rho = (radii[0] + u * (radii[1] - radii[0])) ** (1.0 / n)
    assert _same_bits(sampling._place(d, u, center, radii[0], radii[1]),
                      center + d / norm * rho[..., None])


@EXAMPLES
@given(rows())
def test_ramp_gradient_and_blend_formula(case):
    # make_cutoff's ramp gradient and blend_disjoint's gradient formula
    rng, d = case
    m = len(d)
    rho, slope = np.abs(_values(rng, m)) + 1e-3, float(rng.random()) + 0.5
    assert _same_bits(per_row(np.divide, -slope * d, rho),
                      -slope * d / rho[:, None])
    gin, gout, gw = d, _values(rng, d.shape), _values(rng, d.shape)
    w, dv = rng.random(m), _values(rng, m)
    assert _same_bits(per_row(np.multiply, gin, w)
                      + per_row(np.multiply, gout, 1.0 - w)
                      + per_row(np.multiply, gw, dv),
                      w[:, None] * gin + (1.0 - w[:, None]) * gout
                      + dv[:, None] * gw)


@EXAMPLES
@given(rows())
def test_plane_patch_gradient(case):
    rng, pts = case
    n = pts.shape[1]
    plane = AffinePlane(1, _values(rng, n), 0.0, np.zeros(n))
    want = np.tile(plane.gradient, (len(pts), 1))
    assert _same_bits(fill_rows(plane.gradient, len(pts)), want)
    patch = _plane_patch(plane, Ball(np.zeros(n), 1.0), (), "plane")
    assert _same_bits(patch.gradients(pts), want)
    assert patch.constant_gradient is plane.gradient


def _old_registrations(centers, radii, cell):
    """The (hash, ball) registrations of a ``BallIndex`` by the plain
    expressions: broadcast box corners, span test and hash sum."""
    def cells(pts):
        return np.clip(np.floor(pts[:, :INDEX_AXES] / cell),
                       -2.0**62, 2.0**62).astype(np.int64)

    def cell_hash(c):
        return (c * _CELL_HASH[:c.shape[1]]).sum(axis=1)

    half = (radii + PAIR_SLACK / 2.0)[:, None]
    lo = cells(centers - half)
    span = cells(centers + half) - lo
    dim = lo.shape[1]
    grid = np.indices((int(span.max(initial=0)) + 1,) * dim
                      ).reshape(dim, -1).T
    ball, g = np.nonzero((grid[None] <= span[:, None]).all(axis=2))
    bits = len(radii).bit_length()
    packed = np.sort((cell_hash(lo)[ball] + cell_hash(grid)[g])
                     >> bits << bits | ball)
    return np.divmod(packed[run_starts(packed)], 1 << bits)


@EXAMPLES
@given(rows())
def test_ball_index_registrations(case):
    rng, centers = case
    radii = np.abs(_values(rng, len(centers))) + 1e-6
    index = BallIndex(centers, radii)
    keys, ball = _old_registrations(centers, radii, index.cell)
    assert np.array_equal(index._keys, keys)
    assert np.array_equal(index._ball, ball)


@EXAMPLES
@given(st.integers(0, 2**32 - 1), st.integers(0, 40),
       st.integers(1, INDEX_AXES))
def test_cell_hash_wraps_as_the_sum(seed, m, k):
    rng = np.random.default_rng(seed)
    cells = rng.integers(-2**62, 2**62, (m, k), dtype=np.int64,
                         endpoint=True)
    index = BallIndex(np.zeros((1, k)), np.ones(1))
    assert np.array_equal(index._hash(cells),
                          (cells * _CELL_HASH[:k]).sum(axis=1))


def test_the_check_sees_a_reassociated_row_sum():
    # adding a row's last two squares first is the pairwise order that
    # sq_norms must not take below 8 columns
    rng = np.random.default_rng(0)
    d = _values(rng, (1000, 3))
    planted = d[:, 0]**2 + (d[:, 1]**2 + d[:, 2]**2)
    assert _same_bits(sq_norms(d), (d**2).sum(axis=1))
    assert not _same_bits(planted, (d**2).sum(axis=1))
    assert not _same_bits(np.sqrt(planted), np.linalg.norm(d, axis=1))


def test_convolution_nodes_are_computed_once_and_read_only():
    offsets, wts = convolution_nodes(3, 9)
    assert convolution_nodes(3, 9)[0] is offsets
    for arr in (offsets, wts):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# the left fold over the nodes does not return these exactly, and the -0.0
# folds to +0.0
GRADIENT = np.array([0.01, -0.007, -0.0])


def _plane_and_generic(eps):
    """A mollified plane patch, which folds its constant gradient once,
    and the same field mollified through the generic fold."""
    window = Ball(np.zeros(3), 0.25)
    plane = AffinePlane(1, GRADIENT, 0.0082, window.center)
    g = _plane_patch(plane, window, (), "plane")
    return (mollify(g, eps),
            mollify(dataclasses.replace(g, constant_gradient=None), eps))


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
def test_constant_gradient_mollify_matches_the_generic_fold(monkeypatch, m):
    # a block cap of 64 splits the node fold over several blocks at every m
    monkeypatch.setattr(analysis, "MOLLIFY_BLOCK", 64)
    smooth, generic = _plane_and_generic(0.01)
    assert smooth.constant_gradient is not None
    assert generic.constant_gradient is None
    pts = _points(m)
    want = generic.gradients(pts)
    assert _same_bits(smooth.gradients(pts), want)
    assert _same_bits(smooth.values(pts), generic.values(pts))
    vals, grads = smooth.values_and_gradients(pts)
    assert _same_bits(vals, generic.values(pts))
    assert _same_bits(grads, want)


def _points(m):
    return sample_shell(substream(0, "row-kernels", m), np.zeros(3), 0.0,
                        0.2, m)


def test_twice_smoothed_plane_folds_the_folded_gradient():
    smooth, generic = _plane_and_generic(0.01)
    again, generic_again = (mollify(f, 0.01) for f in (smooth, generic))
    assert again.constant_gradient is not None
    assert _same_bits(again.gradients(_points(2)),
                      generic_again.gradients(_points(2)))


def test_the_check_sees_a_reassociated_node_fold():
    # numpy sums a contiguous 1-D array pairwise, which is not the left
    # fold over the nodes
    smooth, generic = _plane_and_generic(0.01)
    _, wts = convolution_nodes(3, 9)
    planted = np.array([(wts * c).sum() for c in GRADIENT])
    pts = _points(7)
    assert _same_bits(fill_rows(smooth.constant_gradient, 7),
                      generic.gradients(pts))
    assert not _same_bits(fill_rows(planted, 7), generic.gradients(pts))
