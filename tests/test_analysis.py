import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from porous import (AffinePlane, Ball, BlendPreconditionError,
                    PreconditionError, SamplingBudget, ScalarField, analysis,
                    area_lower_bound_check, blend, blend_disjoint,
                    boundary_cross_term, bump_field, flatten_residual,
                    make_cutoff, make_mollifier, mollifier_mass, mollify,
                    smoothed_gradient_check, sobolev_ratio, substream,
                    unit_ball_volume)
from porous.analysis import BUMP_SLOPE_SUP, convolution_nodes
from porous.sampling import sample_shell
from porous.surfaces import BumpSpec, _plane_patch

from oracles import per_stratum_sampled_sup

CENTER = np.array([0.5, 0.5, 0.5])


def _fd_gradients(fn, pts, step=1e-7):
    out = np.zeros_like(pts)
    for j in range(pts.shape[1]):
        shift = np.zeros(pts.shape[1])
        shift[j] = step
        out[:, j] = (fn(pts + shift) - fn(pts - shift)) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 0.1])
def test_mollifier_mass_is_one(eps):
    for n in (3, 4):
        moll = make_mollifier(n)
        # adaptive quadrature of the radial mass, independent of the
        # Legendre rule used to normalise the kernel
        area = n * unit_ball_volume(n)

        def radial(rho):
            u = rho / eps
            return (moll.kappa * math.exp(1.0 / (u * u - 1.0)) / eps**n
                    * rho ** (n - 1))

        val, err = integrate.quad(radial, 0.0, eps * (1.0 - 1e-12),
                                  epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-9
        assert abs(area * val - 1.0) <= 1e-6
        assert abs(mollifier_mass(moll, eps) - 1.0) <= 1e-6


def test_mollifier_density_supported_on_unit_ball():
    moll = make_mollifier(3)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.999, 0, 0],
                    [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    dens = moll.density(pts)
    assert dens[0] > dens[1] > dens[2] > 0
    assert dens[3] == 0.0 and dens[4] == 0.0


def test_convolution_nodes_unit_mass_inside_ball():
    for npa in (5, 9, 13):
        offsets, weights = convolution_nodes(3, npa)
        assert np.all((offsets**2).sum(axis=1) < 1.0)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        convolution_nodes(3, 2)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def _affine_field(gradient, offset, ball):
    g = np.asarray(gradient, dtype=float)
    return ScalarField(
        domain=ball,
        fn=lambda pts: np.atleast_2d(pts) @ g + offset,
        grad_fn=lambda pts: np.broadcast_to(g, np.atleast_2d(pts).shape).copy(),
        grad_bound=float(np.linalg.norm(g)))


def test_mollify_fixes_affine_fields():
    ball = Ball(CENTER, 1.0)
    aff = _affine_field([0.3, -0.2, 0.1], 0.7, ball)
    smooth = mollify(aff, 0.2)
    pts = sample_shell(substream(0, "affine"), CENTER, 0.0, 0.7, 512)
    assert np.max(np.abs(smooth.values(pts) - aff.values(pts))) <= 1e-8
    assert smooth.domain.radius == pytest.approx(0.8)


def test_mollify_drift_bounded_by_eps_times_slope():
    # oscillatory field rescaled to a unit gradient bound
    ball = Ball(CENTER, 1.0)
    raw_slope = 2.0 * 20.0 * 1.0   # sup |d/drho sin(20 rho^2)| * sup rho
    scale = 1.0 / raw_slope

    def fn(pts):
        rho2 = ((np.atleast_2d(pts) - CENTER) ** 2).sum(axis=1)
        return scale * np.sin(20.0 * rho2)

    def grad_fn(pts):
        d = np.atleast_2d(pts) - CENTER
        return (40.0 * scale * np.cos(20.0 * (d**2).sum(axis=1)))[:, None] * d

    g = ScalarField(domain=ball, fn=fn, grad_fn=grad_fn, grad_bound=1.0)
    eps = 0.05
    smooth = mollify(g, eps)
    probes = sample_shell(substream(1, "drift"), CENTER, 0.0, 0.9, 1000)
    drift = np.abs(smooth.values(probes) - g.values(probes))
    assert float(drift.max()) <= eps

    # higher-order rule as the oracle: same bound, close agreement
    fine = mollify(g, eps, nodes_per_axis=17)
    drift_fine = np.abs(fine.values(probes) - g.values(probes))
    assert float(drift_fine.max()) <= eps
    assert float(np.abs(fine.values(probes)
                        - smooth.values(probes)).max()) <= 1e-3


def _wavy_plane_field(ball):
    """Plane plus a small wave: BLAS products in values and gradients."""
    plane = AffinePlane(1, np.array([0.01, -0.004, 0.002]), 0.3, CENTER)
    k = np.array([7.0, -3.0, 5.0])
    amp = 1e-3

    def fn(pts):
        return plane.heights(pts) + amp * np.sin(pts @ k)

    def grad_fn(pts):
        return plane.gradient + amp * np.cos(pts @ k)[:, None] * k

    return ScalarField(domain=ball, fn=fn, grad_fn=grad_fn,
                       grad_bound=plane.slope + amp * float(np.linalg.norm(k)),
                       label="wavy")


def _mollify_per_node(g, eps, nodes_per_axis):
    """Reference: one evaluation of g per quadrature node, summed in order.

    Each node evaluates the points stacked twice and keeps the first m
    rows, so that g never forms a one-row product: numpy rounds those
    differently from multi-row ones, and mollify never forms them.
    """
    offsets, wts = convolution_nodes(g.domain.dim, nodes_per_axis)
    shifts = eps * offsets

    def fold(evaluate, pts):
        twice = np.concatenate([pts, pts])
        acc = 0.0
        for q in range(shifts.shape[0]):
            acc = acc + wts[q] * evaluate(twice + shifts[q])[:len(pts)]
        return acc

    return (lambda pts: fold(g.values, pts),
            lambda pts: fold(g.gradients, pts))


@pytest.mark.parametrize("nodes_per_axis", [9, 25])
@pytest.mark.parametrize("m", [1, 7, 100])
def test_mollify_batched_matches_per_node_loop(monkeypatch, nodes_per_axis,
                                               m):
    # a small block cap so that m = 100 exceeds it and m = 7 spans many
    # partial blocks; m = 1 guards against a pairwise-summed reduction
    monkeypatch.setattr(analysis, "MOLLIFY_BLOCK", 64)
    g = _wavy_plane_field(Ball(CENTER, 1.0))
    smooth = mollify(g, 0.05, nodes_per_axis=nodes_per_axis)
    values, gradients = _mollify_per_node(g, 0.05, nodes_per_axis)
    pts = sample_shell(substream(11, "batched", m), CENTER, 0.0, 0.9, m)
    assert np.array_equal(smooth.values(pts), values(pts))
    assert np.array_equal(smooth.gradients(pts), gradients(pts))


def test_mollify_batched_matches_per_node_loop_at_default_cap():
    g = _wavy_plane_field(Ball(CENTER, 1.0))
    smooth = mollify(g, 0.05)
    values, gradients = _mollify_per_node(g, 0.05, 9)
    pts = sample_shell(substream(12, "batched"), CENTER, 0.0, 0.9, 1000)
    assert len(convolution_nodes(3, 9)[1]) * len(pts) > analysis.MOLLIFY_BLOCK
    assert np.array_equal(smooth.values(pts), values(pts))
    assert np.array_equal(smooth.gradients(pts), gradients(pts))


@pytest.mark.parametrize("m", [1, 2, 256])
def test_mollify_batched_matches_per_node_loop_on_suite_instance(m):
    # the analysis suite's smoothed-gradient instance: a bump capped at
    # eps^2 t on B(c, t), smoothed at eps t with 25 nodes per axis; at
    # m = 256 its 3,489 nodes fill 54 blocks of 64 and a short one of 33
    dom, eps = Ball(CENTER, 0.25), 0.05
    bump = bump_field(CENTER, dom.radius, eps**2 * dom.radius)
    capped = ScalarField(domain=dom, fn=bump.fn, grad_fn=bump.grad_fn,
                         grad_bound=min(bump.grad_bound, 1.0))
    smooth = mollify(capped, eps * dom.radius, nodes_per_axis=25)
    values, gradients = _mollify_per_node(capped, eps * dom.radius, 25)
    per = analysis.MOLLIFY_BLOCK // 256
    assert len(convolution_nodes(3, 25)[1]) % per == 33
    pts = sample_shell(substream(13, "suite-instance", m), CENTER, 0.0,
                       smooth.domain.radius, m)
    assert smooth.values(pts).tobytes() == values(pts).tobytes()
    assert smooth.gradients(pts).tobytes() == gradients(pts).tobytes()


@pytest.mark.parametrize("cap", [analysis.MOLLIFY_BLOCK, 64])
@pytest.mark.parametrize("nodes_per_axis", [9, 25])
def test_mollify_lone_point_equals_its_batch_row(monkeypatch, nodes_per_axis,
                                                 cap):
    # a smoothed field's value at a point does not depend on its batch:
    # the wavy field's matrix products see multi-row blocks either way
    monkeypatch.setattr(analysis, "MOLLIFY_BLOCK", cap)
    g = _wavy_plane_field(Ball(CENTER, 1.0))
    smooth = mollify(g, 0.05, nodes_per_axis=nodes_per_axis)
    pts = sample_shell(substream(15, "lone", nodes_per_axis), CENTER, 0.0,
                       0.9, 200)
    vals, grads = smooth.values(pts), smooth.gradients(pts)
    for i in range(len(pts)):
        assert smooth.values(pts[i:i + 1]).tobytes() == vals[i:i + 1].tobytes()
        assert (smooth.gradients(pts[i:i + 1]).tobytes()
                == grads[i:i + 1].tobytes())


def test_mollify_never_writes_into_the_fields_arrays():
    # a field handing out views of one cached array, as a memoising field
    # would: smoothing reads them and must leave the cache as it was
    rng = np.random.default_rng(3)
    cache_v = rng.standard_normal(analysis.MOLLIFY_BLOCK)
    cache_g = rng.standard_normal((analysis.MOLLIFY_BLOCK, 3))
    kept_v, kept_g = cache_v.copy(), cache_g.copy()
    g = ScalarField(domain=Ball(CENTER, 1.0),
                    fn=lambda pts: cache_v[:len(pts)],
                    grad_fn=lambda pts: cache_g[:len(pts)], grad_bound=1.0)
    smooth = mollify(g, 0.05)
    pts = sample_shell(substream(14, "cached"), CENTER, 0.0, 0.9, 100)
    for p in (pts, pts[:1]):
        smooth.values(p)
        smooth.gradients(p)
    assert np.array_equal(cache_v, kept_v)
    assert np.array_equal(cache_g, kept_g)


def test_mollify_rejects_eps_outside_domain():
    ball = Ball(CENTER, 0.1)
    g = _affine_field([1.0, 0.0, 0.0], 0.0, ball)
    with pytest.raises(ValueError):
        mollify(g, 0.1)
    with pytest.raises(ValueError):
        mollify(g, 0.0)


# ---------------------------------------------------------------------------
# bump fields
# ---------------------------------------------------------------------------

def test_bump_field_peak_and_support():
    bump = bump_field(CENTER, 0.25, 0.01)
    assert bump.values(CENTER[None, :])[0] == pytest.approx(0.01, rel=1e-12)
    edge = CENTER + np.array([0.25, 0.0, 0.0])
    assert bump.values(edge[None, :])[0] == 0.0
    assert bump.values((CENTER + [0.3, 0, 0])[None, :])[0] == 0.0


def test_bump_field_gradient_analytic_vs_fd():
    bump = bump_field(CENTER, 0.25, 0.01)
    pts = sample_shell(substream(2, "bump"), CENTER, 0.0, 0.24, 256)
    fd = _fd_gradients(bump.values, pts)
    assert np.allclose(bump.gradients(pts), fd, atol=1e-5)


def test_bump_field_certified_slope_is_sharp():
    bump = bump_field(CENTER, 0.25, 0.01)
    rho = np.linspace(1e-6, 0.25 - 1e-6, 20001)
    pts = CENTER + rho[:, None] * np.array([1.0, 0.0, 0.0])
    slopes = np.linalg.norm(bump.gradients(pts), axis=1)
    observed = float(slopes.max())
    cert = bump.grad_bound
    assert observed <= cert
    assert observed >= 0.999 * cert    # certified bound is not slack
    assert cert == pytest.approx(0.01 * BUMP_SLOPE_SUP / 0.25)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_exact_plateau_and_support():
    t, eps = 0.2, 0.25
    cut = make_cutoff(Ball(CENTER, t), eps)
    rng = substream(3, "cutoff")
    inner = sample_shell(rng, CENTER, 0.0, t * (1 - 2 * eps), 512)
    outer = sample_shell(rng, CENTER, t * (1 - eps), t, 512)
    assert np.all(cut.field.values(inner) == 1.0)
    assert np.all(cut.field.values(outer) == 0.0)
    band = sample_shell(rng, CENTER, t * (1 - 2 * eps), t * (1 - eps), 512)
    vals = cut.field.values(band)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_gradient_bounded_on_ring_probes():
    t, eps = 0.2, 0.25
    cut = make_cutoff(Ball(CENTER, t), eps)
    cap = 3.0 / (eps * t)
    assert cut.slope_cap == pytest.approx(cap)
    probes = sample_shell(substream(4, "ring"), CENTER,
                          t * (1 - 2 * eps), t * (1 - eps), 10_000)
    grads = np.linalg.norm(cut.field.gradients(probes), axis=1)
    assert float(grads.max()) <= cap * (1.0 + 1e-9)
    # finite differences as the oracle on a subsample
    fd = _fd_gradients(cut.field.values, probes[:500], step=1e-8)
    assert np.allclose(np.linalg.norm(fd, axis=1), grads[:500],
                       rtol=1e-4, atol=1e-3)


def test_cutoff_band_matches_unshortcut_convolution():
    # the radial short-circuit must be a pure speedup: band values agree
    # with mollifying the raw ramp and evaluating it everywhere
    t, eps = 0.2, 0.25
    ball = Ball(CENTER, t)
    cut = make_cutoff(ball, eps)
    hi = t - 5.0 * eps * t / 3.0
    lo = t - 4.0 * eps * t / 3.0
    slope = 3.0 / (eps * t)

    def ramp_grad(pts):
        d = np.atleast_2d(pts) - CENTER
        rho = np.linalg.norm(d, axis=1)
        sloped = (rho > lo - 1.0 / slope) & (rho < lo)
        return np.where(sloped[:, None],
                        -slope * d / np.maximum(rho, 1e-300)[:, None], 0.0)

    raw = ScalarField(
        domain=ball,
        fn=lambda pts: np.clip(
            (lo - np.linalg.norm(np.atleast_2d(pts) - CENTER, axis=1))
            * slope, 0.0, 1.0),
        grad_fn=ramp_grad, grad_bound=slope)
    full = mollify(raw, eps * t / 3.0)
    pts = sample_shell(substream(5, "band"), CENTER, hi * 0.5,
                       t * (1 - eps) * 0.999, 2000)
    assert np.max(np.abs(cut.field.values(pts) - full.values(pts))) <= 1e-12


def test_cutoff_rejects_bad_eps():
    with pytest.raises(ValueError):
        make_cutoff(Ball(CENTER, 0.2), 0.5)
    with pytest.raises(ValueError):
        make_cutoff(Ball(CENTER, 0.2), 0.0)


# ---------------------------------------------------------------------------
# blending
# ---------------------------------------------------------------------------

def test_blend_gradient_bound_on_annulus():
    t, eps = 0.2, 0.1
    ball = Ball(CENTER, t)
    outer_dom = Ball(CENTER, 0.5)
    cut = make_cutoff(ball, eps)
    # fields agreeing to eps^2 * t across the matching annulus
    aff = _affine_field([0.02, 0.0, 0.0], 0.01, outer_dom)
    wobble = bump_field(CENTER, 2.0 * t, 0.8 * eps * eps * t)

    def inner_fn(pts):
        return aff.values(pts) + wobble.values(pts)

    def inner_grad(pts):
        return aff.gradients(pts) + wobble.gradients(pts)

    inner = ScalarField(domain=outer_dom, fn=inner_fn, grad_fn=inner_grad,
                        grad_bound=aff.grad_bound + wobble.grad_bound)
    v = blend(inner, aff, cut)
    bound = max(inner.grad_bound, aff.grad_bound) + 3.0 * eps
    assert v.grad_bound == pytest.approx(bound)
    probes = sample_shell(substream(6, "blend"), CENTER,
                          cut.plateau_radius, cut.support_radius, 4000)
    fd = _fd_gradients(v.values, probes, step=1e-8)
    assert float(np.linalg.norm(fd, axis=1).max()) <= bound * (1 + 1e-6)


def test_blend_interpolates_between_fields():
    t, eps = 0.2, 0.1
    cut = make_cutoff(Ball(CENTER, t), eps)
    outer_dom = Ball(CENTER, 0.5)
    inner = _affine_field([0.0, 0.0, 0.0], 5e-4, outer_dom)
    outer = _affine_field([0.0, 0.0, 0.0], 0.0, outer_dom)
    v = blend_disjoint(outer, [(inner, cut)], match_tol=1e-3)
    deep = sample_shell(substream(7, "deep"), CENTER, 0.0,
                        cut.plateau_radius, 128)
    far = sample_shell(substream(7, "far"), CENTER, cut.support_radius,
                       0.45, 128)
    assert np.allclose(v.values(deep), 5e-4)
    assert np.allclose(v.values(far), 0.0)


def test_blend_rejects_mismatched_fields():
    t, eps = 0.2, 0.1
    cut = make_cutoff(Ball(CENTER, t), eps)
    outer_dom = Ball(CENTER, 0.5)
    inner = _affine_field([0.0, 0.0, 0.0], 1.0, outer_dom)   # gap 1 >> tol
    outer = _affine_field([0.0, 0.0, 0.0], 0.0, outer_dom)
    with pytest.raises(BlendPreconditionError):
        blend(inner, outer, cut)


def _disjoint_pieces(g, specs, eps=0.1):
    """(inner, cutoff) per (centre, radius); inners shared per radius."""
    inners = {}
    pieces = []
    for center, t in specs:
        if t not in inners:
            inners[t] = mollify(g, eps * t / 3.0)
        pieces.append((inners[t], make_cutoff(Ball(center, t), eps)))
    return pieces


def _two_field_blend(inner, outer, cutoff):
    """Reference arithmetic of one blend, evaluating the cutoff everywhere."""

    def fn(pts):
        w = cutoff.field.values(pts)
        out = outer.values(pts)
        mask = w > 0.0
        if mask.any():
            out[mask] = (w[mask] * inner.values(pts[mask])
                         + (1.0 - w[mask]) * out[mask])
        return out

    def grad_fn(pts):
        w = cutoff.field.values(pts)
        gout = outer.gradients(pts)
        mask = w > 0.0
        if mask.any():
            sub = pts[mask]
            gw = cutoff.field.gradients(sub)
            gin = inner.gradients(sub)
            vals_in = inner.values(sub)
            vals_out = outer.values(sub)
            gout[mask] = (w[mask, None] * gin
                          + (1.0 - w[mask, None]) * gout[mask]
                          + (vals_in - vals_out)[:, None] * gw)
        return gout

    return ScalarField(domain=outer.domain, fn=fn, grad_fn=grad_fn,
                       grad_bound=outer.grad_bound)


def _blend_chain(g, pieces, **kwargs):
    """Reference: one nested two-field blend per piece, in order."""
    current = g
    for inner, cut in pieces:
        current = blend_disjoint(current, [(inner, cut)], **kwargs)
    return current


BLEND_SPECS = [(CENTER + [0.2, 0.0, 0.0], 0.08),
               (CENTER - [0.2, 0.0, 0.0], 0.08),
               (CENTER + [0.0, 0.2, 0.05], 0.05),
               (CENTER + [0.0, -0.15, -0.2], 0.08)]


def test_blend_disjoint_matches_nested_blend_chain():
    dom = Ball(CENTER, 0.5)
    g = _wavy_plane_field(dom)
    pieces = _disjoint_pieces(g, BLEND_SPECS)
    flat = blend_disjoint(g, pieces, match_tol=1e-2, label="flat")
    chain = _blend_chain(g, pieces, match_tol=1e-2, label="flat")
    rng = substream(13, "flat-vs-chain")
    axes = np.vstack([np.eye(3), -np.eye(3)])
    groups = []
    for _, cut in pieces:
        c, t = cut.ball.center, cut.ball.radius
        groups += [
            c[None, :],                                               # centre
            sample_shell(rng, c, 0.0, cut.plateau_radius, 64),        # plateau
            sample_shell(rng, c, cut.plateau_radius,
                         cut.support_radius, 256),                    # band
            sample_shell(rng, c, cut.support_radius, t, 64),          # outside
            c + cut.plateau_radius * axes, c + cut.support_radius * axes,
            c + t * axes]                                             # edges
    groups.append(sample_shell(rng, CENTER, 0.0, 0.45, 512))
    pts = np.vstack(groups)
    assert np.array_equal(flat.values(pts), chain.values(pts))
    assert np.array_equal(flat.gradients(pts), chain.gradients(pts))
    assert flat.grad_bound == chain.grad_bound
    assert flat.domain == chain.domain and flat.label == chain.label
    # and the arithmetic of a chain that evaluates every cutoff everywhere
    ref = g
    for inner, cut in pieces:
        ref = _two_field_blend(inner, ref, cut)
    assert np.array_equal(flat.values(pts), ref.values(pts))
    assert np.array_equal(flat.gradients(pts), ref.gradients(pts))


@pytest.mark.parametrize("bad", range(len(BLEND_SPECS)))
def test_blend_disjoint_prechecks_every_piece(bad):
    dom = Ball(CENTER, 0.5)
    g = _wavy_plane_field(dom)
    pieces = _disjoint_pieces(g, BLEND_SPECS)
    inner, cut = pieces[bad]
    lifted = ScalarField(domain=inner.domain,
                         fn=lambda pts: inner.values(pts) + 1.0,
                         grad_fn=inner.gradients, grad_bound=inner.grad_bound)
    pieces[bad] = (lifted, cut)
    with pytest.raises(BlendPreconditionError) as err:
        blend_disjoint(g, pieces)
    rho = np.linalg.norm(err.value.details["point"] - cut.ball.center)
    assert cut.plateau_radius - 1e-12 <= rho <= cut.support_radius + 1e-12
    assert err.value.details["gap"] > err.value.details["tol"]


def test_blend_disjoint_lens_of_two_cutoff_balls_keeps_outer():
    # the balls overlap in a lens that misses both supports, so a lens
    # point belongs to the first ball, whose cutoff is zero there
    dom = Ball(CENTER, 0.5)
    g = _wavy_plane_field(dom)
    shift = np.array([0.0775, 0.0, 0.0])
    pieces = _disjoint_pieces(g, [(CENTER - shift, 0.08),
                                  (CENTER + shift, 0.08)])
    flat = blend_disjoint(g, pieces, match_tol=1e-2)
    rng = substream(14, "lens")
    lens = CENTER + np.hstack([np.zeros((64, 1)),
                               rng.uniform(-0.01, 0.01, size=(64, 2))])
    for _, cut in pieces:
        rho = np.linalg.norm(lens - cut.ball.center, axis=1)
        assert ((rho > cut.support_radius) & (rho < cut.ball.radius)).all()
    assert np.array_equal(flat.values(lens), g.values(lens))
    assert np.array_equal(flat.gradients(lens), g.gradients(lens))
    pts = np.vstack([lens] + [sample_shell(rng, cut.ball.center, 0.0,
                                           cut.ball.radius, 256)
                              for _, cut in pieces])
    ref = g
    for inner, cut in pieces:
        ref = _two_field_blend(inner, ref, cut)
    assert np.array_equal(flat.values(pts), ref.values(pts))
    assert np.array_equal(flat.gradients(pts), ref.gradients(pts))


def test_blend_disjoint_rejects_overlapping_cutoffs():
    dom = Ball(CENTER, 0.5)
    g = _wavy_plane_field(dom)
    pieces = _disjoint_pieces(g, [(CENTER, 0.08),
                                  (CENTER + [0.1, 0.0, 0.0], 0.08)])
    with pytest.raises(ValueError):
        blend_disjoint(g, pieces)


# ---------------------------------------------------------------------------
# one pass for values and gradients
# ---------------------------------------------------------------------------

def _joint_fields():
    """A tilted plane patch with a bump, blended over two cutoff balls
    towards its mollification; the fields by name, and the cutoffs."""
    window = Ball(CENTER, 0.5)
    plane = AffinePlane(1, np.array([0.0085, 0.0085, 0.0]), 0.0082, CENTER)
    patch = _plane_patch(plane, window,
                         [BumpSpec(tuple(CENTER + 0.05), 0.004, 0.3)],
                         "joint")
    pieces = _disjoint_pieces(patch, BLEND_SPECS[:2])
    fields = {"plane-patch": patch, "mollify": pieces[0][0],
              "cutoff": pieces[0][1].field,
              "blend": blend_disjoint(patch, pieces, match_tol=1e-2),
              "mollify-of-a-field-without-one": mollify(
                  _wavy_plane_field(window), 0.01)}
    return fields, [cut for _, cut in pieces]


def _joint_points(cuts):
    """A batch of points on each cutoff's plateau, in its band and outside
    its support, and one lone point of each kind."""
    rng = substream(5, "joint-points")
    batch, lone = [], []
    for cut in cuts:
        c = cut.ball.center
        for lo, hi in [(0.0, cut.plateau_radius),
                       (cut.plateau_radius, cut.support_radius),
                       (cut.support_radius, 1.5 * cut.ball.radius)]:
            pts = sample_shell(rng, c, lo, hi, 40)
            batch.append(pts)
            lone.append(pts[:1])
    return [np.vstack(batch), *lone]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("name", ["plane-patch", "mollify", "cutoff",
                                  "blend", "mollify-of-a-field-without-one"])
def test_joint_pass_equals_the_separate_passes_bit_for_bit(name):
    fields, cuts = _joint_fields()
    field = fields[name]
    # the plane patch has no joint pass; values_and_gradients makes both
    assert (field.joint_fn is not None) == (name != "plane-patch")
    for pts in _joint_points(cuts):
        vals, grads = field.values_and_gradients(pts)
        assert np.array_equal(_bits(vals), _bits(field.values(pts)))
        assert np.array_equal(_bits(grads), _bits(field.gradients(pts)))


def test_joint_blend_gradient_is_the_two_field_arithmetic():
    # blend_disjoint's gradients are its joint pass's, so check them
    # against the reference blend, which evaluates everything separately
    fields, cuts = _joint_fields()
    patch = fields["plane-patch"]
    ref = patch
    for cut in cuts:
        ref = _two_field_blend(fields["mollify"], ref, cut)
    for pts in _joint_points(cuts):
        vals, grads = fields["blend"].values_and_gradients(pts)
        assert np.array_equal(_bits(vals), _bits(ref.values(pts)))
        assert np.array_equal(_bits(grads), _bits(ref.gradients(pts)))


def test_blend_gradient_does_not_depend_on_the_cutoffs_company():
    # the gradient's (inner - outer) term reads outer at the batch's rows,
    # the values the blended value reads: a band point's gradient is the
    # same bytes as the lone point of its cutoff in a batch and among many
    fields, cuts = _joint_fields()
    blended, cut = fields["blend"], cuts[0]
    rng = substream(8, "company")
    far = sample_shell(rng, CENTER - [0.0, 0.0, 0.3], 0.0, 0.05, 30)
    band = sample_shell(rng, cut.ball.center, cut.plateau_radius,
                        cut.support_radius, 200)
    crowd = blended.gradients(np.vstack([far, band]))[len(far):]
    for p, want in zip(band, crowd):
        alone = blended.gradients(np.vstack([far, p[None, :]]))[-1]
        assert np.array_equal(_bits(alone), _bits(want))


def test_a_values_call_evaluates_no_gradient():
    # a blend of a mollified plane under two cutoffs: its values call
    # skips the gradient half of the blend, of both cutoffs and of every
    # mollify, and its values are the bytes of the joint pass's
    wavy = _wavy_plane_field(Ball(CENTER, 0.5))
    calls = {"values": 0, "gradients": 0}

    def counted(half, fn):
        def wrapped(pts):
            calls[half] += 1
            return fn(pts)
        return wrapped

    plane = dataclasses.replace(wavy, fn=counted("values", wavy.fn),
                                grad_fn=counted("gradients", wavy.grad_fn))
    pieces = _disjoint_pieces(plane, BLEND_SPECS[:2])
    blended = blend_disjoint(plane, pieces, match_tol=1e-2)
    for pts in _joint_points([cut for _, cut in pieces]):
        calls.update(values=0, gradients=0)
        vals = blended.values(pts)
        assert calls["values"] > 0 and calls["gradients"] == 0
        joint_vals, _ = blended.values_and_gradients(pts)
        assert calls["gradients"] > 0
        assert np.array_equal(_bits(vals), _bits(joint_vals))


def test_a_field_without_a_joint_pass_evaluates_both():
    field = _wavy_plane_field(Ball(CENTER, 0.5))
    assert field.joint_fn is None
    pts = sample_shell(substream(2, "no-joint"), CENTER, 0.0, 0.4, 17)
    vals, grads = field.values_and_gradients(pts)
    assert np.array_equal(vals, field.values(pts))
    assert np.array_equal(grads, field.gradients(pts))
    with pytest.raises(ValueError):
        dataclasses.replace(field, joint_fn=lambda p: (p, p)
                            ).values_and_gradients(pts)


# ---------------------------------------------------------------------------
# sampled sups
# ---------------------------------------------------------------------------

def _suite_plane_gap():
    """|tilted - plane| of the analysis suite's flatten-identity row."""
    plane = AffinePlane(index=1, gradient=np.array([0.3, 0.0, 0.0]),
                        offset=0.0, anchor=CENTER)
    wobble = bump_field(CENTER, 0.15, 0.9 * 0.01 * 0.25)
    return lambda pts: np.abs(plane.heights(pts) + wobble.values(pts)
                              - plane.heights(pts))


@pytest.mark.parametrize("name", ["bump", "mollified-bump", "plane-gap"])
@pytest.mark.parametrize("budget", [SamplingBudget(32, 512),
                                    SamplingBudget(24, 256),
                                    SamplingBudget(1, 2)])
def test_sampled_sup_equals_the_per_stratum_loop(name, budget):
    bump = bump_field(CENTER, 0.2, 0.2 / BUMP_SLOPE_SUP)
    smooth = mollify(bump, 0.005)
    fn, b = {"bump": (bump.values, bump.domain),
             "mollified-bump": (smooth.values, smooth.domain),
             "plane-gap": (_suite_plane_gap(), Ball(CENTER, 0.25))}[name]
    for seed in (0, 7):
        assert analysis._sampled_sup(fn, b, seed, budget) == \
            per_stratum_sampled_sup(fn, b, seed, budget)


# ---------------------------------------------------------------------------
# embedding-type ratio
# ---------------------------------------------------------------------------

def test_sobolev_ratio_on_compact_bump():
    b = Ball(CENTER, 0.25)
    g = bump_field(CENTER, 0.2, 0.2 / BUMP_SLOPE_SUP)   # unit slope
    check = sobolev_ratio(g, b, alpha=0.4)
    assert check.exponent == pytest.approx(6.0)
    assert math.isfinite(check.ratio) and check.ratio > 0
    assert check.vanish_fraction >= 0.4


def test_sobolev_ratio_stable_under_resolution_doubling():
    b = Ball(CENTER, 0.25)
    g = bump_field(CENTER, 0.2, 0.2 / BUMP_SLOPE_SUP)
    coarse = sobolev_ratio(g, b, alpha=0.4, budget=SamplingBudget(32, 512))
    fine = sobolev_ratio(g, b, alpha=0.4, budget=SamplingBudget(32, 1024))
    assert abs(fine.ratio - coarse.ratio) <= 0.05 * coarse.ratio


def test_sobolev_ratio_requires_vanishing_fraction():
    b = Ball(CENTER, 0.25)
    g = bump_field(CENTER, 0.3, 0.3 / BUMP_SLOPE_SUP)   # supported past b
    with pytest.raises(PreconditionError):
        sobolev_ratio(g, b, alpha=0.9)
    with pytest.raises(ValueError):
        sobolev_ratio(g, b, alpha=0.0)


# ---------------------------------------------------------------------------
# peak-area estimate
# ---------------------------------------------------------------------------

def _cone_field(h, ball):
    """Radial ramp peaking at h with unit gradient, vanishing past rho=h."""

    def fn(pts):
        rho = np.linalg.norm(np.atleast_2d(pts) - ball.center, axis=1)
        return np.maximum(h - rho, 0.0)

    def grad(pts):
        pts = np.atleast_2d(pts)
        delta = pts - ball.center
        rho = np.linalg.norm(delta, axis=1)
        out = np.zeros_like(pts)
        live = (rho > 1e-300) & (rho < h)
        out[live] = -delta[live] / rho[live, None]
        return out

    return ScalarField(domain=ball, fn=fn, grad_fn=grad, grad_bound=1.0)


def test_area_check_matches_cone_closed_form():
    h = 0.1
    b = Ball(CENTER, 4.0 * h)
    g = _cone_field(h, b)
    check = area_lower_bound_check(g, b, h, budget=SamplingBudget(32, 2048))
    # superlevel {g >= h/2} is the rho <= h/2 ball with |grad| = 1 on it
    exact_rhs = unit_ball_volume(3) * (h / 2.0) ** 3
    assert check.lhs == pytest.approx(unit_ball_volume(3) * h**3, rel=1e-12)
    assert abs(check.rhs - exact_rhs) <= check.rhs_half_width + 1e-5
    assert check.ratio == pytest.approx(8.0, rel=0.25)


def test_area_check_ratio_stable_across_h_dilation():
    ratios = []
    for seed, h in enumerate((0.1, 0.05, 0.025)):
        b = Ball(CENTER, 4.0 * h)
        g = _cone_field(h, b)
        check = area_lower_bound_check(g, b, h, seed=seed,
                                       budget=SamplingBudget(32, 2048))
        ratios.append(check.ratio)
    mid = sorted(ratios)[1]
    assert all(abs(r - mid) <= 0.2 * mid for r in ratios)


def test_area_check_preconditions():
    h = 0.1
    b = Ball(CENTER, 4.0 * h)
    with pytest.raises(ValueError):
        area_lower_bound_check(_cone_field(h, b), b, 0.0)
    with pytest.raises(PreconditionError):
        area_lower_bound_check(_cone_field(h, b), b, 0.5)   # never reaches h
    steep = ScalarField(domain=b, fn=lambda pts: np.zeros(len(pts)),
                        grad_fn=np.zeros_like, grad_bound=2.0)
    with pytest.raises(PreconditionError):
        area_lower_bound_check(steep, b, h)


# ---------------------------------------------------------------------------
# energy splitting against a reference slope
# ---------------------------------------------------------------------------

def test_flatten_residual_identity_and_shape():
    b = Ball(CENTER, 0.2)
    plane = AffinePlane(index=1, gradient=np.array([0.5, 0.0, 0.0]),
                        offset=0.0, anchor=CENTER)
    eps = 0.02
    wobble = bump_field(CENTER, 0.8 * b.radius, 0.9 * eps * b.radius)

    def fn(pts):
        return plane.heights(pts) + wobble.values(pts)

    def grad(pts):
        g = np.broadcast_to(plane.gradient, np.atleast_2d(pts).shape).copy()
        return g + wobble.gradients(pts)

    g = ScalarField(domain=b, fn=fn, grad_fn=grad,
                    grad_bound=plane.slope + wobble.grad_bound)
    check = flatten_residual(g, plane, b, eps)
    assert check.identity_gap <= 1e-6
    assert abs(check.residual) <= check.bound_scale * eps * b.volume() * 1.001

    # divergence-theorem form as the independent oracle for the cross term
    boundary = boundary_cross_term(g, plane, b)
    assert abs(check.cross_term - boundary) <= check.half_width + 1e-9


def test_flatten_residual_rejects_wide_gap():
    b = Ball(CENTER, 0.2)
    plane = AffinePlane(index=1, gradient=np.zeros(3), offset=0.0,
                        anchor=CENTER)
    tall = bump_field(CENTER, 0.8 * b.radius, 0.1)
    with pytest.raises(PreconditionError):
        flatten_residual(tall, plane, b, eps=0.001)


def test_boundary_cross_term_needs_three_dimensions():
    b = Ball(np.zeros(4), 0.2)
    plane = AffinePlane(index=1, gradient=np.zeros(4), offset=0.0,
                        anchor=np.zeros(4))
    g = ScalarField(domain=b, fn=lambda pts: np.zeros(len(np.atleast_2d(pts))),
                    grad_fn=np.zeros_like, grad_bound=0.0)
    with pytest.raises(ValueError):
        boundary_cross_term(g, plane, b)


# ---------------------------------------------------------------------------
# gradient collapse under smoothing
# ---------------------------------------------------------------------------

def test_smoothed_gradient_check_reports_small_constant():
    eps, t = 0.2, 0.25
    cap = eps * eps * t
    g = bump_field(CENTER, t, cap)
    assert g.grad_bound <= 1.0
    check = smoothed_gradient_check(g, eps)
    assert check.sup_gap <= cap * (1 + 1e-9)
    assert check.sup_gradient <= check.gradient_over_eps * eps * (1 + 1e-12)
    # doubled node count as the oracle: the reported constant is stable
    fine = smoothed_gradient_check(g, eps, nodes_per_axis=49)
    assert abs(fine.gradient_over_eps - check.gradient_over_eps) \
        <= 0.05 * max(check.gradient_over_eps, 1e-12)


def test_smoothed_gradient_check_rejects_uncapped_field():
    eps, t = 0.2, 0.25
    g = bump_field(CENTER, t, 10.0 * eps * eps * t)
    with pytest.raises(PreconditionError):
        smoothed_gradient_check(g, eps)
