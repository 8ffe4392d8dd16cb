"""Smoothing toolkit and quantitative inequality checks.

The pieces here implement the analytic side of the audit: a compactly
supported smooth averaging kernel, discrete convolution against it, radial
cutoffs, two-field blending, and the measured forms of the embedding, area,
flattening, and smoothed-gradient estimates.

All discrete convolutions use a normalised product Gauss-Legendre rule: the
kernel weights are rescaled to unit discrete mass, so constants mollify to
themselves and affine fields are reproduced to machine precision, which the
audits rely on.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BlendPreconditionError, PreconditionError
from .geometry import (AffinePlane, Ball, BallIndex, ScalarField,
                       displacements, fill_rows, norms, per_row, run_starts,
                       scale_rows, sq_norms, unit_ball_volume)
from .sampling import (SamplingBudget, place_shell, sample_shells,
                       shell_draws, shell_edges, stratified_ball_integral,
                       stratified_ball_mean, substream)

DEFAULT_NODES_PER_AXIS = 9
_RADIAL_ORDER = 400
# shifted points per batched field evaluation in mollify; caps its memory
# independently of nodes_per_axis
MOLLIFY_BLOCK = 1 << 14


def _bump_profile(rho2: np.ndarray) -> np.ndarray:
    """exp(1 / (rho^2 - 1)) on rho < 1, identically zero outside."""
    out = np.zeros_like(rho2)
    inside = rho2 < 1.0
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(1.0 / (rho2[inside] - 1.0))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Normalised smooth kernel supported on the unit ball of R^n."""

    n: int
    kappa: float

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.kappa * _bump_profile((pts**2).sum(axis=1))


def make_mollifier(n: int) -> Mollifier:
    """Kernel with unit mass; the normaliser comes from a radial quadrature."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
    rho = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    radial = float((w * _bump_profile(rho**2) * rho ** (n - 1)).sum())
    sphere_area = n * unit_ball_volume(n)
    return Mollifier(n=n, kappa=1.0 / (sphere_area * radial))


def mollifier_mass(mollifier: Mollifier, eps: float) -> float:
    """Independent radial quadrature of the scaled kernel's total mass."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    nodes, weights = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
    rho = 0.5 * eps * (nodes + 1.0)
    w = 0.5 * eps * weights
    n = mollifier.n
    vals = mollifier.kappa * _bump_profile((rho / eps) ** 2) / eps**n
    sphere_area = n * unit_ball_volume(n)
    return float(sphere_area * (w * vals * rho ** (n - 1)).sum())


@functools.lru_cache(maxsize=None)
def convolution_nodes(n: int, nodes_per_axis: int = DEFAULT_NODES_PER_AXIS
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Offsets in the unit ball and unit-mass weights for discrete smoothing.

    Product Gauss-Legendre nodes on the cube are masked by the kernel (nodes
    outside the unit ball get zero weight), then the surviving weights are
    normalised to sum to one.  Cached; the arrays are read-only.
    """
    if nodes_per_axis < 3:
        raise ValueError("need at least 3 nodes per axis")
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_axis)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * n), indexing="ij")
    wprod = np.ones(offsets.shape[0])
    for wg in wgrids:
        wprod *= wg.ravel()
    mass = wprod * _bump_profile(sq_norms(offsets))
    keep = mass > 0.0
    out = offsets[keep], mass[keep] / mass[keep].sum()
    for arr in out:
        arr.setflags(write=False)
    return out


def mollify(g: ScalarField, eps: float,
            nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
            label: Optional[str] = None) -> ScalarField:
    """Discrete smoothing of ``g`` at scale ``eps``.

    The result lives on the domain shrunk by ``eps``.  Because the rule has
    unit mass and nonnegative weights supported in the eps-ball, the sup
    distance to ``g`` is at most ``eps * g.grad_bound`` and the certified
    gradient bound carries over unchanged.

    Every batch takes one left fold over the nodes, and ``g`` sees a lone
    point's shifted copies as multi-row blocks too, so a point's smoothed
    value and gradient are the same bytes alone as in any batch, provided
    ``g`` itself evaluates each row independently of the batch.  The
    result's ``values_and_gradients`` folds both over one
    ``g.values_and_gradients`` call per block.  Each row folds the same
    ``constant_gradient`` alike, so it is folded once, as a lone point's.
    """
    dom = g.domain
    if not (0 < eps < dom.radius):
        raise ValueError(f"need 0 < eps < domain radius, got eps={eps}")
    offsets, wts = convolution_nodes(dom.dim, nodes_per_axis)
    shifts = eps * offsets

    def fold(evaluate, pts: np.ndarray, shapes: tuple) -> list:
        # The left fold acc += w_q * v_q over the nodes in order from +0.0,
        # once for each array ``evaluate`` returns, of the given shapes.
        # One evaluation per block of shifted copies of pts, written column
        # by column into one (per, m, n) buffer that every block reuses.
        # The block's weighted terms fill rows 1.. of a reused
        # (per + 1, rows, ...) buffer whose row 0 holds the running sum, and
        # add.reduce along that node axis adds the rows one after another
        # (numpy sums pairwise only along a contiguous axis, which the node
        # axis is not while a row holds two or more numbers).  So a lone
        # point gets a spare column of zeros: rows = max(m, 2).  The arrays
        # the field returns are only read, never written.
        m, n = pts.shape
        rows = max(m, 2)
        per = min(len(wts), max(1, MOLLIFY_BLOCK // max(m, 1)))
        shifted = np.empty((per, m, n))
        folds = []
        for shape in shapes:
            terms = np.empty((per + 1, rows) + shape)
            terms[:, m:] = 0.0
            folds.append((wts.reshape((-1,) + (1,) * len(shape)), shape,
                          terms, np.zeros((rows,) + shape)))
        for lo in range(0, len(wts), per):
            k = min(per, len(wts) - lo)
            block = shifted[:k]
            for j in range(n):
                np.add(pts[:, j], shifts[lo:lo + k, None, j],
                       out=block[:, :, j])
            outs = evaluate(block.reshape(k * m, n))
            for vals, (w, shape, terms, acc) in zip(outs, folds):
                terms[0] = acc
                np.multiply(w[lo:lo + k, None], vals.reshape((k, m) + shape),
                            out=terms[1:k + 1, :m])
                np.add.reduce(terms[:k + 1], axis=0, out=acc)
        return [acc[:m] for _, _, _, acc in folds]

    def fn(pts: np.ndarray) -> np.ndarray:
        return fold(lambda block: (g.values(block),), pts, ((),))[0]

    constant = g.constant_gradient
    folded = None if constant is None else fold(
        lambda block: (fill_rows(constant, len(block)),),
        dom.center[None], ((dom.dim,),))[0][0]

    def grad_fn(pts: np.ndarray) -> np.ndarray:
        if folded is not None:
            return fill_rows(folded, len(pts))
        return fold(lambda block: (g.gradients(block),), pts,
                    ((pts.shape[1],),))[0]

    def joint_fn(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if folded is not None:
            return fn(pts), grad_fn(pts)
        return tuple(fold(g.values_and_gradients, pts,
                          ((), (pts.shape[1],))))

    return ScalarField(domain=Ball(dom.center, dom.radius - eps),
                       fn=fn, grad_fn=grad_fn, grad_bound=g.grad_bound,
                       label=label or f"{g.label}^({eps:g})",
                       joint_fn=joint_fn, constant_gradient=folded)


def _bump_slope_sup() -> float:
    """sup over u of |d/du e*exp(1/(u^2-1))| by dense scan.

    The profile derivative is smooth with a single interior maximum, so a
    fine grid under-reports the sup only by a curvature-squared term; the
    safety factor covers it with orders of magnitude to spare.
    """
    u = np.linspace(1e-9, 1.0 - 1e-9, 200001)
    d = 2.0 * u / (u**2 - 1.0) ** 2 * np.exp(1.0 + 1.0 / (u**2 - 1.0))
    return float(d.max()) * (1.0 + 1e-9)


BUMP_SLOPE_SUP = _bump_slope_sup()


def bump_field(center: np.ndarray, radius: float, amplitude: float,
               label: str = "bump") -> ScalarField:
    """Radial C^inf bump: ``amplitude`` at the centre, zero outside.

    Normalised so the peak equals ``amplitude`` exactly; the certified
    gradient bound is ``|amplitude| * BUMP_SLOPE_SUP / radius``.  The domain
    is the support ball.
    """
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    center = np.asarray(center, dtype=float)
    r2 = radius**2
    k = -2.0 * amplitude / r2

    # masked ufuncs evaluate the profile on the support only, writing in
    # place; outside it every value and gradient component is +0.0
    def profile(pts: np.ndarray):
        """pts - center, then s = q - 1 and exp(1 + 1/s) on the support
        q = |pts - center|^2 / r^2 < 1, and the support mask."""
        delta = displacements(np.atleast_2d(pts), center)
        s = sq_norms(delta)
        s /= r2
        inside = s < 1.0
        np.subtract(s, 1.0, out=s, where=inside)
        e = np.divide(1.0, s, out=np.empty_like(s), where=inside)
        np.add(1.0, e, out=e, where=inside)
        np.exp(e, out=e, where=inside)
        return delta, s, e, inside

    def fn(pts: np.ndarray) -> np.ndarray:
        _, _, e, inside = profile(pts)
        return np.multiply(amplitude, e, out=np.zeros(len(e)), where=inside)

    def grad_fn(pts: np.ndarray) -> np.ndarray:
        delta, s, scale, inside = profile(pts)
        np.multiply(k, scale, out=scale, where=inside)
        np.divide(scale, np.square(s, out=s, where=inside), out=scale,
                  where=inside)
        return scale_rows(scale, delta, inside)

    return ScalarField(domain=Ball(center, radius), fn=fn, grad_fn=grad_fn,
                       grad_bound=abs(amplitude) * BUMP_SLOPE_SUP / radius,
                       label=label)


# ---------------------------------------------------------------------------
# cutoffs and blending
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CutoffField:
    """Smoothed radial cutoff on a ball B(x, t).

    ``field`` is identically 1 on B(x, plateau_radius) = B(x, t - 2*eps*t),
    identically 0 outside B(x, support_radius) = B(x, t - eps*t), with
    gradient certified below 3 / (eps * t).
    """

    ball: Ball
    eps: float
    plateau_radius: float
    support_radius: float
    field: ScalarField

    @property
    def slope_cap(self) -> float:
        return 3.0 / (self.eps * self.ball.radius)


def _evaluate(field: ScalarField, pts: np.ndarray, grad: bool) -> tuple:
    """The field's values at pts and, when ``grad``, its gradients from the
    same pass; else None for them."""
    return field.values_and_gradients(pts) if grad \
        else (field.values(pts), None)


def _joint_field(domain: Ball, joint, grad_bound: float,
                 label: str) -> ScalarField:
    """The field whose values and gradients are the two halves of
    ``joint(pts, grad)``, which skips its gradient half, returning None
    for it, when ``grad`` is False.  A values call asks for that, and its
    values are the bytes of the joint pass's."""
    return ScalarField(domain=domain, fn=lambda pts: joint(pts, False)[0],
                       grad_fn=lambda pts: joint(pts, True)[1],
                       grad_bound=grad_bound, label=label,
                       joint_fn=lambda pts: joint(pts, True))


def make_cutoff(ball: Ball, eps: float) -> CutoffField:
    """Radial ramp between t - 5*eps*t/3 and t - 4*eps*t/3, smoothed at eps*t/3.

    The ramp slope is exactly 3/(eps*t); smoothing by a unit-mass kernel of
    radius eps*t/3 pushes the plateau inward to t - 2*eps*t and the support
    inward to t - eps*t while preserving the slope cap.
    """
    if not (0 < eps < 0.5):
        raise ValueError("cutoff parameter must lie in (0, 1/2)")
    t = ball.radius
    hi = t - 5.0 * eps * t / 3.0
    lo = t - 4.0 * eps * t / 3.0
    if hi <= 0:
        raise ValueError("eps too large for this ball")
    slope = 3.0 / (eps * t)
    center = ball.center

    # the ramp and the cutoff evaluate values and gradients in one pass:
    # the gradients cost little beside the norms, and the cutoff's
    # smoothing runs on its thin band alone
    def ramp(pts: np.ndarray, grad: bool) -> tuple:
        delta = displacements(pts, center)
        rho = norms(delta)
        grads = np.zeros_like(pts) if grad else None
        band = (rho > hi) & (rho < lo)
        if grad and band.any():
            grads[band] = per_row(np.divide, -slope * delta[band], rho[band])
        return np.clip((lo - rho) * slope, 0.0, 1.0), grads

    smooth = mollify(_joint_field(Ball(center, t), ramp, slope,
                                  "cutoff-ramp"),
                     eps * t / 3.0, label="cutoff")
    # kernel radius eps*t/3 bounds every quadrature shift, so the smoothed
    # ramp is exactly 1 inside t - 2*eps*t and exactly 0 outside t - eps*t;
    # only the band in between needs the convolution
    plateau = t - 2.0 * eps * t
    support = t - eps * t

    def cutoff(pts: np.ndarray, grad: bool) -> tuple:
        rho = norms(displacements(pts, center))
        vals = np.zeros(pts.shape[0])
        vals[rho <= plateau] = 1.0
        grads = np.zeros_like(pts) if grad else None
        band = (rho > plateau) & (rho < support)
        if band.any():
            v, gv = _evaluate(smooth, pts[band], grad)
            if grad:
                grads[band] = gv
            # convex combination of ramp values; clip float accumulation
            vals[band] = np.clip(v, 0.0, 1.0)
        return vals, grads

    return CutoffField(ball, eps, plateau, support,
                       _joint_field(ball, cutoff, slope, "cutoff"))


def blend(inner: ScalarField, outer: ScalarField, cutoff: CutoffField,
          seed: int = 0) -> ScalarField:
    """Interpolate two fields across the cutoff's transition band.

    Preconditions (audited on sampled annulus probes): the fields differ by
    at most ``eps^2 * t`` on the band where the cutoff varies.  The result
    carries the certified gradient bound
    ``max(inner.grad_bound, outer.grad_bound) + 3 * eps``.  This is the
    one-cutoff case of ``blend_disjoint`` with its default options.
    """
    return blend_disjoint(outer, [(inner, cutoff)], seed=seed)


def blend_disjoint(outer: ScalarField,
                   pieces: Sequence[tuple[ScalarField, CutoffField]],
                   check_budget: int = 512, seed: int = 0,
                   match_tol: Optional[float] = None,
                   label: str = "blend") -> ScalarField:
    """Blend ``outer`` towards one inner field per cutoff, all at once.

    Each cutoff ball must miss every other cutoff's support, so at most one
    cutoff is non-zero at any point: the result is ``w * inner + (1 - w) *
    outer`` where cutoff w is positive and ``outer`` elsewhere.  That is
    the arithmetic of nesting one ``blend`` per piece, in order, without
    the nesting.  Each piece's precondition is audited against ``outer`` as
    ``blend`` does, on the same probe draws placed in each piece's
    annulus, and the certified gradient bound accumulates ``max(inner,
    running) + 3 * eps`` piece by piece.  A point belongs to the lowest
    cutoff ball that holds it, found by one ``BallIndex`` over the balls.
    """
    n = outer.domain.dim
    centers = np.array([cut.ball.center for _, cut in pieces]
                       ).reshape(len(pieces), n)
    radii = np.array([cut.ball.radius for _, cut in pieces])
    support = np.array([cut.support_radius for _, cut in pieces])
    index = BallIndex(centers, radii)
    # supports lie inside their balls, so only index pairs can meet
    i, j, sq = index.pairs()
    dist = np.sqrt(sq)
    if ((dist < radii[i] + support[j]) | (dist < radii[j] + support[i])).any():
        raise ValueError("a cutoff ball meets another cutoff's support")

    bound = outer.grad_bound
    d, u = np.empty((check_budget, n)), np.empty(check_budget)
    shell_draws(substream(seed, "blend-precheck"), d, u)
    for inner, cut in pieces:
        eps, t = cut.eps, cut.ball.radius
        tol = eps * eps * t if match_tol is None else match_tol
        # probes on the closed annulus [t - 2 eps t, t - eps t]
        probes = place_shell(d, u, cut.ball.center, cut.plateau_radius,
                             cut.support_radius)
        gap = np.abs(inner.values(probes) - outer.values(probes))
        worst = int(np.argmax(gap))
        if gap[worst] > tol:
            raise BlendPreconditionError(
                f"fields differ by {gap[worst]:.3e} > {tol:.3e} on the "
                f"matching annulus at {tuple(probes[worst])}",
                gap=float(gap[worst]), tol=float(tol),
                point=probes[worst].copy())
        bound = max(inner.grad_bound, bound) + 3.0 * eps

    def joint(pts: np.ndarray, grad: bool) -> tuple:
        # w * inner + (1 - w) * outer, and its gradient when asked, where a
        # cutoff is > 0
        vals, grads = _evaluate(outer, pts, grad)
        q, ball, _ = index.members(pts)
        first = run_starts(q)
        q, owner = q[first], ball[first]
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        starts = run_starts(owner)
        for j, idx in zip(owner[starts], np.split(q[order], starts[1:])):
            inner, cut = pieces[j]
            w, gw = _evaluate(cut.field, pts[idx], grad)
            keep = w > 0.0
            if not keep.any():
                continue
            sel, w = idx[keep], w[keep]
            vin, gin = _evaluate(inner, pts[sel], grad)
            if grad:
                grads[sel] = (per_row(np.multiply, gin, w)
                              + per_row(np.multiply, grads[sel], 1.0 - w)
                              + per_row(np.multiply, gw[keep],
                                        vin - vals[sel]))
            vals[sel] = w * vin + (1.0 - w) * vals[sel]
        return vals, grads

    return _joint_field(outer.domain, joint, bound, label)


# ---------------------------------------------------------------------------
# measured inequalities
# ---------------------------------------------------------------------------

ZERO_LEVEL_REL = 1e-9  # |g| below this times sup|g| counts as vanishing


@dataclass(frozen=True)
class SobolevCheck:
    exponent: float
    energy: float
    ratio: float
    vanish_fraction: float
    sample_count: int


def sobolev_ratio(g: ScalarField, b: Ball, alpha: float, seed: int = 0,
                  budget: SamplingBudget = SamplingBudget(32, 512)) -> SobolevCheck:
    """Ratio of the critical-exponent norm to the gradient energy on a ball.

    Requires the field to vanish on at least an ``alpha`` fraction of the
    ball (sampled, with the relative zero tolerance).  Exponent is
    2n/(n-2) for a base dimension n > 2.
    """
    n = b.dim
    if n <= 2:
        raise ValueError("embedding exponent needs dimension > 2")
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    p = 2.0 * n / (n - 2.0)

    sup = _sampled_sup(lambda pts: np.abs(g.values(pts)), b, seed, budget)
    level = ZERO_LEVEL_REL * sup if sup > 0 else 0.0
    frac, frac_hw, _ = stratified_ball_mean(
        lambda pts: (np.abs(g.values(pts)) <= level).astype(float),
        b.center, b.radius, seed, budget, key=("sobolev-vanish",))
    if frac < alpha:
        raise PreconditionError(
            f"field vanishes on {frac:.3f} < alpha={alpha} of the ball",
            fraction=frac, alpha=alpha)

    lp_p = stratified_ball_integral(lambda pts: np.abs(g.values(pts)) ** p,
                                    b, seed, budget, key=("sobolev-lp",))
    energy_sq = stratified_ball_integral(
        lambda pts: (g.gradients(pts) ** 2).sum(axis=1),
        b, seed, budget, key=("sobolev-energy",))
    lp = lp_p.value ** (1.0 / p)
    energy = math.sqrt(energy_sq.value)
    ratio = 0.0 if lp == 0.0 else (math.inf if energy == 0.0 else lp / energy)
    return SobolevCheck(exponent=p, energy=energy, ratio=ratio,
                        vanish_fraction=frac, sample_count=lp_p.sample_count)


@dataclass(frozen=True)
class AreaCheck:
    lhs: float
    rhs: float
    rhs_half_width: float
    ratio: float
    sample_count: int


def area_lower_bound_check(g: ScalarField, b: Ball, h: float, seed: int = 0,
                           budget: SamplingBudget = SamplingBudget(32, 512)
                           ) -> AreaCheck:
    """Measured form of the peak-area estimate.

    For a 1-Lipschitz field that stays below h/2 on half the ball yet
    reaches h somewhere, the h-ball volume is controlled by the gradient
    energy over the super-level set {g >= h/2}.  Reports lhs, rhs, and
    their ratio (the empirical constant).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if b.radius < h:
        raise PreconditionError(f"ball radius {b.radius} < h={h}")
    if g.grad_bound > 1.0 + 1e-12:
        raise PreconditionError(
            f"certified gradient bound {g.grad_bound} exceeds 1")

    low, low_hw, _ = stratified_ball_mean(
        lambda pts: (g.values(pts) <= h / 2.0).astype(float),
        b.center, b.radius, seed, budget, key=("area-low",))
    if low + low_hw < 0.5:
        raise PreconditionError(
            f"sub-level fraction {low:.3f} certifiably below 1/2")
    peak = _sampled_sup(g.values, b, seed, budget)
    if peak < h:
        raise PreconditionError(f"sampled peak {peak:.4f} never reaches h={h}")

    def energy_on_superlevel(pts: np.ndarray) -> np.ndarray:
        vals, grads = g.values_and_gradients(pts)
        e = (grads ** 2).sum(axis=1)
        return np.where(vals >= h / 2.0, e, 0.0)

    rhs = stratified_ball_integral(energy_on_superlevel, b, seed, budget,
                                   key=("area-energy",))
    lhs = unit_ball_volume(b.dim) * h ** b.dim
    ratio = math.inf if rhs.value == 0 else lhs / rhs.value
    return AreaCheck(lhs=lhs, rhs=rhs.value, rhs_half_width=rhs.half_width,
                     ratio=ratio, sample_count=rhs.sample_count)


@dataclass(frozen=True)
class FlattenCheck:
    residual: float
    cross_term: float
    identity_gap: float
    bound_scale: float
    half_width: float
    sample_count: int


def flatten_residual(g: ScalarField, plane: AffinePlane, b: Ball, eps: float,
                     seed: int = 0,
                     budget: SamplingBudget = SamplingBudget(32, 512)
                     ) -> FlattenCheck:
    """Energy splitting against a constant-slope reference.

    residual = integral of |grad g|^2 - |grad a|^2 - |grad (g-a)|^2, which
    algebraically equals the cross term 2 * integral <grad a, grad(g-a)>.
    When |g - a| <= eps * t, both are bounded by a constant times
    eps * vol(b); ``bound_scale`` reports |residual| / (eps * vol(b)).
    """
    t = b.radius
    ga = plane.gradient

    sup_gap = _sampled_sup(
        lambda pts: np.abs(g.values(pts) - plane.heights(pts)), b, seed, budget)
    if sup_gap > eps * t * (1 + 1e-9):
        raise PreconditionError(
            f"sup |g - a| = {sup_gap:.3e} exceeds eps*t = {eps * t:.3e}")

    def residual_integrand(pts: np.ndarray) -> np.ndarray:
        gg = g.gradients(pts)
        return ((gg**2).sum(axis=1) - float(ga @ ga)
                - ((gg - ga) ** 2).sum(axis=1))

    def cross_integrand(pts: np.ndarray) -> np.ndarray:
        gg = g.gradients(pts)
        return 2.0 * (gg - ga) @ ga

    vol = b.volume()
    mean_r, hw_r, count = stratified_ball_mean(
        residual_integrand, b.center, b.radius, seed, budget, key=("flatten",))
    mean_c, _, _ = stratified_ball_mean(
        cross_integrand, b.center, b.radius, seed, budget, key=("flatten",))
    residual = mean_r * vol
    cross = mean_c * vol
    scale = abs(residual) / (eps * vol) if eps > 0 else math.inf
    return FlattenCheck(residual=residual, cross_term=cross,
                        identity_gap=abs(residual - cross),
                        bound_scale=scale, half_width=hw_r * vol,
                        sample_count=count)


def boundary_cross_term(g: ScalarField, plane: AffinePlane, b: Ball) -> float:
    """Divergence-theorem form of the cross term, for 3-dimensional balls.

    2 * integral over the sphere of (g - a) <grad a, nu>; serves as the
    independent check of the volume quadrature.
    """
    if b.dim != 3:
        raise ValueError("boundary quadrature implemented for n = 3")
    theta_nodes, phi_nodes = 64, 128    # Gauss in cos(theta), midpoint in phi
    nodes, weights = np.polynomial.legendre.leggauss(theta_nodes)
    cos_t = nodes
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = 2.0 * math.pi * (np.arange(phi_nodes) + 0.5) / phi_nodes
    w_phi = 2.0 * math.pi / phi_nodes
    total = 0.0
    ga = plane.gradient
    for i in range(theta_nodes):
        nu = np.stack([sin_t[i] * np.cos(phi), sin_t[i] * np.sin(phi),
                       np.full(phi_nodes, cos_t[i])], axis=1)
        pts = b.center + b.radius * nu
        integrand = (g.values(pts) - plane.heights(pts)) * (nu @ ga)
        total += weights[i] * w_phi * integrand.sum()
    return 2.0 * b.radius**2 * total


@dataclass(frozen=True)
class SmoothedGradientCheck:
    sup_gap: float
    sup_gradient: float
    gradient_over_eps: float


def smoothed_gradient_check(g: ScalarField, eps: float, seed: int = 0,
                            nodes_per_axis: int = 25,
                            budget: SamplingBudget = SamplingBudget(24, 256)
                            ) -> SmoothedGradientCheck:
    """Gradient collapse under smoothing of a capped field.

    For |g| <= eps^2 * t with gradient bound 1, smoothing at scale eps * t
    leaves a gradient of size O(eps) on the shrunk ball.  Reports the
    sampled sup of |grad g_smoothed| and its ratio to eps.
    """
    b = g.domain
    t = b.radius
    cap = eps * eps * t
    sup_gap = _sampled_sup(lambda pts: np.abs(g.values(pts)), b, seed, budget)
    if sup_gap > cap * (1 + 1e-9):
        raise PreconditionError(
            f"sampled sup |g| = {sup_gap:.3e} exceeds eps^2*t = {cap:.3e}")
    if g.grad_bound > 1.0 + 1e-12:
        raise PreconditionError("certified gradient bound exceeds 1")
    smooth = mollify(g, eps * t, nodes_per_axis)
    inner = Ball(b.center, t - eps * t)
    sup_grad = _sampled_sup(
        lambda pts: np.linalg.norm(smooth.gradients(pts), axis=1),
        inner, seed, budget)
    return SmoothedGradientCheck(sup_gap=sup_gap, sup_gradient=sup_grad,
                                 gradient_over_eps=sup_grad / eps)


def _sampled_sup(fn, b: Ball, seed: int, budget: SamplingBudget) -> float:
    """Deterministic stratified probe of a sup, including the centre point."""
    edges = shell_edges(b.radius, budget.strata, b.dim)
    pts = sample_shells(seed, [("sup", j) for j in range(budget.strata)],
                        np.repeat(b.center[None, :], budget.strata, axis=0),
                        edges[:-1, None], edges[1:, None], budget.per_stratum)
    return max(float(np.max(fn(b.center[None, :]))),
               float(np.max(fn(pts.reshape(-1, b.dim)))))
