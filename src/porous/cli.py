"""Command-line front end: build, audit, and report aggregation.

Subcommands:
  build   construct a hole family from a config and audit its invariants
  audit   run selected verification suites against a family (+ corpus)
  report  merge audit reports into flat CSV and plot-ready series

Exit codes: 0 all-pass, 1 usage or input error, 2 any audit or construction
failure, 3 indeterminate results with no failures.  Every artifact carries
the config hash and seed; apart from the run manifest (which records wall
times), outputs are byte-reproducible.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .bounds import mode_map, plane_mass_ceiling
from .config import LoadedConfig, load_config
from .construction import (build_family, deserialize_family,
                           sample_truncated_P, serialize_family, truncated_P)
from .errors import (AuditFailure, ConfigError, ConstructionFailure,
                     ParseError, PorousError, PreconditionError)
from .surfaces import generate_from_spec, load_corpus_spec
from .verification import (ANALYSIS, BUDGET, CONSTRUCTION, POROSITY,
                           AuditReport, AuditRow, analysis_suite, budget,
                           coverage_deficit, family_invariant_audit,
                           hole_intersection_mass, ledger_rows, porosity_row)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INDETERMINATE = 3

_STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                "indeterminate": EXIT_INDETERMINATE}


def _manifest(subcommand: str, cfg: LoadedConfig, inputs: dict,
              outputs: dict, started: float) -> dict:
    # wall-clock stamps live only here, never in reports or families
    return {
        "tool": "porous",
        "version": __version__,
        "subcommand": subcommand,
        "config_path": cfg.path,
        "config_hash": cfg.config_hash,
        "seed": cfg.build.seed,
        "inputs": inputs,
        "outputs": outputs,
        "started_unix": started,
        "finished_unix": time.time(),
    }


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _report_config(cfg: LoadedConfig) -> dict:
    build = cfg.build
    return {
        "config_hash": cfg.config_hash,
        "seed": build.seed,
        "parameters": cfg.doc,
        "mode_map": mode_map(build.E, build.epsilons[: build.depth],
                             build.stop_fractions[: build.depth]),
    }


def _load(args) -> LoadedConfig:
    return load_config(args.config).with_seed(args.seed)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    started = time.time()
    cfg = _load(args)
    out = Path(args.out)
    try:
        family, log = build_family(cfg.build)
    except ConstructionFailure as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        for key, val in exc.details.items():
            print(f"  {key}: {val}", file=sys.stderr)
        return EXIT_FAIL

    family_path = out / "family.jsonl"
    _write(family_path, serialize_family(family))

    report = AuditReport(_report_config(cfg), {
        CONSTRUCTION: _construction_rows(family, [], cfg)})
    _write(out / "build_report.json", report.to_json())
    _write(out / "build_report.csv", report.to_csv())
    _write(out / "build_log.json",
           json.dumps(log, separators=(",", ":"), default=float) + "\n")
    _write(out / "manifest-build.json", json.dumps(_manifest(
        "build", cfg, inputs={"config": cfg.path},
        outputs={"family": str(family_path),
                 "report": str(out / "build_report.json")},
        started=started), indent=2) + "\n")
    print(f"built {len(family.ks)} holes -> {family_path} "
          f"[{report.verdicts['overall']}]")
    return _STATUS_EXIT[report.verdicts["overall"]]


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _construction_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    return family_invariant_audit(family, cfg.audit)


def _analysis_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    return analysis_suite(seed=cfg.audit.seed)


def _cover_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    return [coverage_deficit(family, k, cfg.build.stop_fractions[k - 1],
                             cfg.audit).row
            for k in range(1, family.depth + 1)]


def _porosity_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    points = sample_truncated_P(truncated_P(family),
                                cfg.audit.porosity_samples,
                                seed=cfg.audit.seed)
    row, _, failure = porosity_row(points, family)
    if failure is not None:
        print(f"audit failure: {failure}", file=sys.stderr)
    return [row]


def _budget_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    rows = []
    for g in fields:
        ledger = budget(g, family, cfg.audit)
        for stage in ledger.stages:
            for violation in stage.violations:
                print(f"audit failure: {ledger.source}: "
                      f"{violation.message}", file=sys.stderr)
        rows += ledger_rows(ledger)
    return rows


def _holes_mass_rows(family, fields, cfg: LoadedConfig) -> list[AuditRow]:
    ceiling = plane_mass_ceiling(family.n, family.s,
                                 cfg.build.stop_fractions[0])
    rows = []
    for g in fields:
        row = hole_intersection_mass(g, family, cfg.audit).row
        rows.append(row)
        # a corpus field is affine exactly when it is of the plane kind
        if g.constant_gradient is not None:
            rows.append(AuditRow.at_most(f"{row.id}/alpha", "plane-mass-alpha",
                                         row.measured, ceiling))
    return rows


# audit group -> (report section, rows of the group); a section lists the
# rows of its groups in this order
AUDITS = {
    "construction": (CONSTRUCTION, _construction_rows),
    "analysis": (ANALYSIS, _analysis_rows),
    "cover": (CONSTRUCTION, _cover_rows),
    "budget": (BUDGET, _budget_rows),
    "porosity": (POROSITY, _porosity_rows),
    "holes-mass": (BUDGET, _holes_mass_rows),
}
WHICH_CHOICES = tuple(AUDITS)


def _parse_which(raw: Optional[str]) -> tuple[str, ...]:
    if raw is None:
        return WHICH_CHOICES
    picked = tuple(part.strip() for part in raw.split(",") if part.strip())
    bad = [p for p in picked if p not in WHICH_CHOICES]
    if bad or not picked:
        what = f"unknown audit selection {bad}" if bad \
            else f"empty audit selection {raw!r}"
        raise ConfigError(f"{what}; choose from " + ", ".join(WHICH_CHOICES))
    return picked


def cmd_audit(args) -> int:
    started = time.time()
    cfg = _load(args)
    which = _parse_which(args.which)
    out = Path(args.out)

    family = None
    needs_family = [w for w in which if w != "analysis"]
    if args.family is None and needs_family:
        raise ConfigError(
            f"--family is required for audits {needs_family}")
    if args.family is not None:
        family_path = Path(args.family)
        if not family_path.exists():
            raise ConfigError(f"family file not found: {family_path}")
        family = deserialize_family(family_path.read_text())
        if family.config_hash and family.config_hash != cfg.config_hash:
            raise ConfigError(
                f"family was built under config hash "
                f"{family.config_hash[:12]}..., loaded config hashes to "
                f"{cfg.config_hash[:12]}...; refusing to mix")

    fields = []
    needs_corpus = [w for w in which if w in ("budget", "holes-mass")]
    if needs_corpus:
        if args.corpus is None:
            raise ConfigError(
                f"--corpus is required for audits {needs_corpus}")
        corpus_path = Path(args.corpus)
        if not corpus_path.exists():
            raise ConfigError(f"corpus spec not found: {corpus_path}")
        fields = generate_from_spec(load_corpus_spec(corpus_path),
                                    window=family.window)

    sections: dict[str, list[AuditRow]] = {}
    for group, (section, rows_of) in AUDITS.items():
        if group in which:
            sections.setdefault(section, []).extend(
                rows_of(family, fields, cfg))
    report = AuditReport(_report_config(cfg), sections)
    for row in report.rows():
        if row.status == "fail":
            print(f"audit failure: {row.id}: measured {row.measured:.6g} "
                  f"vs bound {row.bound:.6g}", file=sys.stderr)
    _write(out / "audit_report.json", report.to_json())
    _write(out / "audit_report.csv", report.to_csv())
    _write(out / "manifest-audit.json", json.dumps(_manifest(
        "audit", cfg,
        inputs={"config": cfg.path, "family": args.family,
                "corpus": args.corpus, "which": ",".join(which)},
        outputs={"report": str(out / "audit_report.json")},
        started=started), indent=2) + "\n")
    verdicts = report.verdicts
    print(f"audit [{', '.join(which)}]: {verdicts['pass']} pass, "
          f"{verdicts['fail']} fail, {verdicts['indeterminate']} "
          f"indeterminate -> {verdicts['overall']}")
    return _STATUS_EXIT[verdicts["overall"]]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    reports = []
    for path in args.reports:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"report not found: {p}")
        try:
            reports.append(AuditReport.from_json(p.read_text()))
        except ValueError as exc:
            raise ConfigError(f"cannot parse report {p}: {exc}") from exc

    # the config hash covers the config file's bytes, not a --seed override
    for key, what in (("config_hash", "config hashes"), ("seed", "seeds")):
        values = {r.config.get(key) for r in reports}
        if len(values) > 1:
            raise ConfigError(
                f"refusing to merge reports with mixed {what}: "
                + ", ".join(sorted(str(v)[:12] for v in values)))

    merged = AuditReport.merge(reports)

    out = Path(args.out)
    _write(out / "merged_report.json", merged.to_json())
    _write(out / "merged_report.csv", merged.to_csv())
    # plot-ready: one series per check, rows sorted by (check, id)
    rows = merged.rows()
    series_rows = sorted(rows, key=lambda r: (r.check, r.id))
    lines = ["check,id,measured,bound,margin"]
    lines += [f"{r.check},{r.id},{r.measured!r},{r.bound!r},{r.margin!r}"
              for r in series_rows]
    _write(out / "series.csv", "\n".join(lines) + "\n")
    print(f"merged {len(reports)} report(s), {len(rows)} rows "
          f"-> {out / 'merged_report.json'} [{merged.verdicts['overall']}]")
    return _STATUS_EXIT[merged.verdicts["overall"]]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porous",
        description="Build and audit directionally porous hole families.")
    parser.add_argument("--version", action="version",
                        version=f"porous {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a family from a config")
    build.add_argument("--config", required=True, help="config JSON path")
    build.add_argument("--out", default="porous-out", help="output directory")
    build.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    build.set_defaults(func=cmd_build)

    audit = sub.add_parser("audit", help="verify a family against a corpus")
    audit.add_argument("--config", required=True, help="config JSON path")
    audit.add_argument("--family", default=None, help="family JSON-lines path")
    audit.add_argument("--corpus", default=None, help="corpus spec path")
    audit.add_argument("--out", default="porous-out", help="output directory")
    audit.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    audit.add_argument("--which", default=None,
                       help="comma-separated subset of: "
                       + ", ".join(WHICH_CHOICES))
    audit.set_defaults(func=cmd_audit)

    report = sub.add_parser("report", help="merge audit reports")
    report.add_argument("reports", nargs="+", help="audit report JSON paths")
    report.add_argument("--out", default="porous-out",
                        help="output directory")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except PorousError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
