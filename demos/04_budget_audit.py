#!/usr/bin/env python3
"""Mass-budget ledgers for corpus fields against the built family.

For a field g on the window the staged ledger scans which holes the
graph of g meets, classifies each hit as shallow or deep through its
residue region, checks the shallow side against the per-stage eps_k
allowance and the deep side against residue Dirichlet energy, audits
disjointness of the hit holes, and closes with the global verdict

    sum of hit-hole mass  <=  C * ( int |grad g|^2  +  sum_i eps_i ).

Three fields make the contrast: a gradient-free field must end with
exactly zero hit mass, a bump field typically misses every hole, and a
near-plane field hits many holes yet stays within the graph-mass cap
sqrt(1 + r^2) * (summed hit cross-sections).

Reuses demos/out/family.jsonl when present (see 01_build_hole_family).
"""

import argparse
from pathlib import Path

import numpy as np

from porous import (Ball, ScalarField, budget, build_family,
                    deserialize_family, generate_from_spec,
                    hole_intersection_mass, load_config, load_corpus_spec)

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


def zero_patch(window: Ball) -> ScalarField:
    return ScalarField(
        domain=window,
        fn=lambda pts: np.zeros(np.atleast_2d(pts).shape[0]),
        grad_fn=lambda pts: np.zeros_like(np.atleast_2d(pts)),
        grad_bound=0.0, label="zero", c1_bound=0.0)


def report(name: str, ledger, cap_check=None) -> bool:
    print(f"\n=== {name} ===")
    for st in ledger.stages:
        cls = st.classification
        rows = {r.check: r for r in st.rows}
        print(f"  stage {st.k}: hits={len(cls.hit_ids)}  "
              f"mass={st.hit_mass:.4e}  u={len(cls.u_ids)} d={len(cls.d_ids)}"
              f"  u_mass={rows['u-mass'].measured:.3e}  "
              f"dbound_ratio={rows['d-energy'].measured:.3g}  -> {st.status}")
    row = ledger.verdict
    print(f"  energy={ledger.energy.value:.4e}  "
          f"empirical C = {ledger.c_empirical:.3g}")
    print(f"  {row.id}: total_mass={row.measured:.4e}  "
          f"bound={row.bound:.4e}  {row.status}")
    ok = ledger.status == "pass"
    if cap_check is not None:
        cap = cap_check.row
        print(f"  graph mass in holes: upper={cap.measured:.4e}  "
              f"cap={cap.bound:.4e}  hit_count={cap_check.hit_count}  "
              f"{cap.status}")
        ok &= cap.status == "pass"
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path,
                    default=HERE / "config" / "demo.json")
    ap.add_argument("--corpus", type=Path,
                    default=HERE / "config" / "corpus.json")
    ap.add_argument("--family", type=Path,
                    default=HERE / "out" / "family.jsonl")
    args = ap.parse_args()

    cfg, family = load_or_build(args.config, args.family)
    fields = generate_from_spec(load_corpus_spec(args.corpus), family.window)
    plane = next(g for g in fields if g.label.startswith("plane["))
    bump = next(g for g in fields if g.label.startswith("bump["))
    ok = True
    for g in (plane, bump):
        led = budget(g, family, cfg.audit)
        cap = hole_intersection_mass(g, family, cfg.audit)
        ok &= report(g.label, led, cap)

    led = budget(zero_patch(family.window), family, cfg.audit)
    ok &= report("zero field", led)
    exact_zero = led.verdict.measured == 0.0
    print(f"\n  zero field hit mass exactly 0.0: {exact_zero}")
    ok &= exact_zero

    print(f"\nverdict: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
