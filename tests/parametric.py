"""Parametric C¹ surfaces and graph extraction by Newton inversion.

The paper's surfaces need not be graphs.  This module represents one as
a map f: [0,1]^n -> R^(n+1), a plane embedding u -> (u, a(u)) plus
polynomial bumps attached to coordinates, and recovers the graph of f
over the window ball by inverting its first n coordinates with a damped
Newton solve.  No pipeline code uses it: the tests exercise it, and the
audits work on the graph fields that ``porous.surfaces`` generates.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from porous.errors import PorousError, PreconditionError
from porous.geometry import AffinePlane, Ball, ScalarField
from porous.surfaces import unit_lattice

DELTA_SCALE = 1e-2          # extraction basin: delta = DELTA_SCALE * r
NEWTON_CAP = 50
NEWTON_TOL = 1e-10


class ExtractionError(PorousError):
    """Graph extraction failed to converge at some probe point."""


@dataclass(frozen=True)
class SurfaceC1:
    """Map f: [0,1]^n -> R^(n+1) as plane embedding plus attached bumps.

    ``components`` lists (axis, bump) pairs; axis n is the height coordinate,
    axes < n perturb the horizontal part (making the inversion non-trivial).
    """

    plane: AffinePlane
    components: tuple = ()
    label: str = "surface"

    @property
    def dim(self) -> int:
        return self.plane.dim

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.hstack([pts, self.plane.heights(pts)[:, None]])
        for axis, bump in self.components:
            out[:, axis] += bump.values(pts)
        return out

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """(m, n+1, n) array of partial derivatives."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape
        jac = np.zeros((m, n + 1, n))
        jac[:, :n, :] = np.eye(n)
        jac[:, n, :] = self.plane.gradient
        for axis, bump in self.components:
            jac[:, axis, :] += bump.gradients(pts)
        return jac

    def horizontal(self, pts: np.ndarray) -> np.ndarray:
        """First n coordinates of f (the part inverted during extraction)."""
        return self.value(pts)[:, : self.dim]


def reference_surface(n: int) -> SurfaceC1:
    """The flat embedding u -> (u, 0)."""
    plane = AffinePlane(index=1, gradient=np.zeros(n), offset=0.0,
                        anchor=np.full(n, 0.5))
    return SurfaceC1(plane=plane, label="reference")


def reference_distance(f: SurfaceC1, probe_per_axis: int = 17
                       ) -> tuple[float, float]:
    """(lattice estimate, certified upper bound) of the C¹ distance to (u, 0).

    The certified bound uses corner values of the affine part plus the
    declared bump maxima; it is what extraction preconditions audit against.
    """
    n = f.dim
    pts = unit_lattice(n, probe_per_axis)
    dev = f.value(pts)
    dev[:, :n] -= pts
    sup_map = float(np.linalg.norm(dev, axis=1).max())
    jac = f.jacobian(pts)
    jac[:, :n, :] -= np.eye(n)
    sup_partial = max(
        float(np.linalg.norm(jac[:, :, j], axis=1).max()) for j in range(n))
    probe = max(sup_map, sup_partial)

    corners = unit_lattice(n, 2)
    heights = np.abs(f.plane.heights(corners)).max()
    amp = sum(abs(b.amplitude) for _, b in f.components)
    slope = sum(b.slope_max for _, b in f.components)
    plane_slope = f.plane.slope
    certified = max(float(heights) + amp, plane_slope + slope)
    return probe, certified


def newton_invert(f: SurfaceC1, targets: np.ndarray, tol: float
                  ) -> np.ndarray:
    """Solve horizontal(u) = x rowwise with damped Newton, cap 50 steps."""
    n = f.dim
    u = targets.copy()
    res = f.horizontal(u) - targets
    norms = np.linalg.norm(res, axis=1)
    for _ in range(NEWTON_CAP):
        active = norms > tol
        if not active.any():
            break
        ua = u[active]
        jac = f.jacobian(ua)[:, :n, :]
        step = np.linalg.solve(jac, res[active][:, :, None])[:, :, 0]
        # damping: halve the step until the residual stops growing
        scale = np.ones(len(ua))
        for _ in range(20):
            trial = ua - scale[:, None] * step
            trial_res = np.linalg.norm(f.horizontal(trial) - targets[active],
                                       axis=1)
            worse = trial_res > norms[active]
            if not worse.any():
                break
            scale[worse] *= 0.5
        u[active] = ua - scale[:, None] * step
        res[active] = f.horizontal(u[active]) - targets[active]
        norms[active] = np.linalg.norm(res[active], axis=1)
    if (norms > tol).any():
        bad = int(np.argmax(norms))
        raise ExtractionError(
            f"inversion residual {norms[bad]:.3e} > tol {tol:g} at probe "
            f"{tuple(targets[bad])}")
    return u


def graph_extract(f: SurfaceC1, window: Ball, r_bound: float,
                  delta: Optional[float] = None, tol: float = NEWTON_TOL,
                  audit_per_axis: int = 9) -> ScalarField:
    """Represent f over the window as a height field g via Newton inversion.

    Preconditions: the certified C¹ distance of f to the flat embedding is
    below ``delta`` (default r_bound/100).  The extracted field is audited
    to satisfy max(sup|g|, sup|grad g|) <= r_bound on a probe lattice.
    """
    if delta is None:
        delta = DELTA_SCALE * r_bound
    _, certified = reference_distance(f)
    if certified >= delta:
        raise PreconditionError(
            f"surface is {certified:.3e} from the reference in C¹, "
            f"needs < {delta:.3e}", distance=certified, delta=delta)
    n = f.dim

    def g_fn(pts: np.ndarray) -> np.ndarray:
        u = newton_invert(f, np.atleast_2d(pts), tol)
        return f.value(u)[:, n]

    def g_grad(pts: np.ndarray) -> np.ndarray:
        u = newton_invert(f, np.atleast_2d(pts), tol)
        jac = f.jacobian(u)
        # chain rule: grad g = (d horizontal/du)^{-T} . d height/du
        return np.linalg.solve(np.swapaxes(jac[:, :n, :], 1, 2),
                               jac[:, n, :, None])[:, :, 0]

    # near-identity inversion inflates the C¹ distance by at most ~2x
    bound = 2.0 * certified
    gfield = ScalarField(domain=window, fn=g_fn, grad_fn=g_grad,
                         grad_bound=bound, label=f.label, c1_bound=bound)

    probes = window.center + (window.radius / math.sqrt(n)) * (
        unit_lattice(n, audit_per_axis) * 2.0 - 1.0)
    sup_g = float(np.abs(gfield.values(probes)).max())
    sup_dg = float(np.linalg.norm(gfield.gradients(probes), axis=1).max())
    if max(sup_g, sup_dg) > r_bound:
        raise ExtractionError(
            f"extracted field has probed C¹ size {max(sup_g, sup_dg):.3e} "
            f"> {r_bound:g}")
    return gfield
