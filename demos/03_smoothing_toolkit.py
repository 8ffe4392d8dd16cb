#!/usr/bin/env python3
"""Run the analytic toolkit's self-checks and one worked smoothing example.

The analysis suite reduces every smoothing and inequality guarantee to a
measured-vs-bound row: mollifier mass, the affine fixed point of
discrete smoothing, mollification drift, cutoff slope, blend gradient,
the flatten identity and its residual shape, the Sobolev-quotient
stability, the superlevel area lower bound, and the smoothed-gradient
cap.  No hole family is involved; this is the toolkit auditing itself.

The worked example then builds a single bump field with a certified unit
gradient bound, mollifies it at a chosen scale, and compares the
measured sup drift on a probe cloud against the eps * ||grad|| bound.
"""

import argparse

import numpy as np

from porous import AuditRow, analysis_suite, bump_field, mollify
from porous.analysis import BUMP_SLOPE_SUP


def worked_example(eps: float, seed: int) -> tuple[float, float]:
    center = np.full(3, 0.5)
    radius = 0.15
    g = bump_field(center, radius, radius / BUMP_SLOPE_SUP)  # ||grad|| = 1
    g_eps = mollify(g, eps)

    rng = np.random.default_rng(seed)
    inner = g_eps.domain
    probes = rng.normal(size=(400, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    probes = inner.center + probes * (
        inner.radius * rng.uniform(0.0, 1.0, size=(400, 1)))
    drift = float(np.abs(g_eps.values(probes) - g.values(probes)).max())
    return drift, eps * g.grad_bound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--eps", type=float, default=0.03,
                    help="smoothing scale for the worked example")
    args = ap.parse_args()

    rows = analysis_suite(seed=args.seed)
    print(f"{'id':26s} {'measured':>12s} {'bound':>12s} "
          f"{'margin':>12s}  status")
    for row in rows:
        print(f"{row.id:26s} {row.measured:12.4e} {row.bound:12.4e} "
              f"{row.margin:12.4e}  {row.status}")
    failing = [r.id for r in rows if r.status != "pass"]

    row = AuditRow.at_most("worked-example", "mollify-drift",
                           *worked_example(args.eps, args.seed))
    print(f"\nworked example: unit-gradient bump, eps={args.eps}")
    print(f"  sup |g_eps - g| = {row.measured:.4e}  <=  eps * ||grad|| "
          f"= {row.bound:.4e}:  {row.status}")

    if failing:
        print(f"\nFAILING: {failing}")
        return 2
    print("\nall rows pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
