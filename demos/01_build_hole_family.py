#!/usr/bin/env python3
"""Build the shipped hole family and audit its packing invariants.

Loads demos/config/demo.json, runs the staged construction, prints a
per-stage summary (plane index, hole count, stage radius, the uncovered
mass against the stop threshold), then replays the exact packing audits:
window containment, pairwise disjoint-or-nested enlarged balls, radius
decay, and the per-level coverage floor (1/(2E))^n / 2.

Writes the family to demos/out/family.jsonl so the other demos can
reuse it instead of rebuilding.
"""

import argparse
import time
from pathlib import Path

from porous import (build_family, family_invariant_audit, load_config,
                    plane_schedule, serialize_family)

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path,
                    default=HERE / "config" / "demo.json")
    ap.add_argument("--out", type=Path,
                    default=HERE / "out" / "family.jsonl")
    args = ap.parse_args()

    cfg = load_config(args.config)
    b = cfg.build
    print(f"config {args.config.name}  (hash {cfg.config_hash[:12]}...)")
    print(f"  n={b.n}  s={b.s}  E={b.E}  depth={b.depth}  "
          f"epsilons={list(b.epsilons)}  stop={list(b.stop_fractions)}")

    t0 = time.perf_counter()
    family, log = build_family(b)
    took = time.perf_counter() - t0
    print(f"\nbuilt {len(family.ts)} holes in {took:.1f}s")
    for k in range(1, family.depth + 1):
        ids = family.stage_ids(k)
        stage = log["stages"][k - 1]
        print(f"  stage {k}: plane m={plane_schedule(k)}  "
              f"holes={len(ids)}  levels={len(stage['levels'])}  "
              f"radius={family.stage_radii[k - 1]:.3e}  "
              f"uncovered={stage['uncovered']:.3e} "
              f"(threshold {stage['threshold']:.3e})")

    rows = family_invariant_audit(family, cfg.audit)
    by_check: dict[str, list] = {}
    for row in rows:
        by_check.setdefault(row.check, []).append(row)
    print(f"\ninvariant audit: {len(rows)} rows")
    for check, group in by_check.items():
        bad = [r for r in group if r.status != "pass"]
        tight = min(group, key=lambda r: r.margin)
        verdict = "all pass" if not bad else f"{len(bad)} FAIL"
        print(f"  {check:24s} {len(group):4d} rows  "
              f"tightest margin {tight.margin:+.3e}  ({verdict})")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(serialize_family(family), encoding="utf-8")
    print(f"\nfamily -> {args.out}")
    return 0 if all(r.status == "pass" for r in rows) else 2


if __name__ == "__main__":
    raise SystemExit(main())
