#!/usr/bin/env python3
"""Plane coverage deficits and pointwise porosity of the residual set.

Two sides of the same construction.  Each stage's base plane must be
covered by the truncation union up to a configured deficit: measured
here by Monte Carlo against the relaxed bound, with the strict-regime
bound printed alongside as pure arithmetic.  Conversely, every point
kept in the truncated set must carry a nearby-hole witness whose
radius-over-distance ratio stays above 1/L, which is exactly the
directional porosity the family exists to certify.

Reuses demos/out/family.jsonl when 01_build_hole_family.py already
produced it for the same config; otherwise rebuilds in process.
"""

import argparse
from pathlib import Path

from porous import (alpha_relaxed, build_family, coverage_deficit,
                    deserialize_family, load_config, porosity_row,
                    sample_truncated_P, strict_deficit_bound, truncated_P)

HERE = Path(__file__).resolve().parent


def load_or_build(config_path: Path, family_path: Path):
    cfg = load_config(config_path)
    if family_path.exists():
        family = deserialize_family(family_path.read_text(encoding="utf-8"))
        if family.config_hash == cfg.config_hash:
            print(f"family <- {family_path}")
            return cfg, family
        print("family on disk was built from a different config; rebuilding")
    family, _ = build_family(cfg.build)
    return cfg, family


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path,
                    default=HERE / "config" / "demo.json")
    ap.add_argument("--family", type=Path,
                    default=HERE / "out" / "family.jsonl")
    ap.add_argument("--points", type=int, default=1000,
                    help="porosity sample count over the truncated set")
    args = ap.parse_args()

    cfg, family = load_or_build(args.config, args.family)
    b = cfg.build

    print("\nplane coverage deficit (upper 99% CI vs relaxed bound):")
    ok = True
    for k in range(1, family.depth + 1):
        row = coverage_deficit(family, k, b.stop_fractions[k - 1],
                               cfg.audit).row
        ok &= row.status == "pass"
        print(f"  stage {k} (plane m={family.plane(k).index}):  "
              f"upper={row.measured:.4e}  bound={row.bound:.4e}  "
              f"{row.status}")
    strict = strict_deficit_bound(b.n, b.s, 1)
    relaxed = alpha_relaxed(b.n, b.s, b.stop_fractions[0])
    print(f"  strict stage-1 bound (arithmetic only): {strict:.6e}")
    print(f"  relaxed alpha': {relaxed:.6e}")

    tp = truncated_P(family)
    pts = sample_truncated_P(tp, args.points, seed=cfg.audit.seed)
    row, ratios, failure = porosity_row(pts, family)
    print(f"\nporosity witnesses at {len(pts)} points of the truncated set:")
    if failure is not None:
        print(f"  {failure}")
    else:
        print(f"  worst ratio {row.measured:.6f}  vs floor 1/L - tol = "
              f"{row.bound:.6f}")
        print(f"  mean {ratios.mean():.6f}   best {ratios.max():.6f}")
    ok &= row.status == "pass"

    print(f"\nverdict: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
