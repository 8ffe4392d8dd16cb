import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FAMILY_TAMPERS, TAMPERED_LINE
from porous import AuditReport, AuditRow, deserialize_family, serialize_family
from porous.cli import main
from porous.construction import HoleFamily
from porous.verification import CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "demos" / "config" / "demo.json"

MINI_CORPUS = [{"kind": "plane", "seed": 0,
                "params": {"gradients": [[0.011, 0.0, 0.0]],
                           "offsets": [0.0082]}}]


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("build")
    rc = main(["build", "--config", str(DEMO_CONFIG), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def audit_dir(build_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(build_dir / "family.jsonl"),
               "--which", "construction,cover,porosity",
               "--out", str(out)])
    assert rc == 0
    return out


def test_build_writes_all_artifacts(build_dir):
    for name in ("family.jsonl", "build_report.json", "build_report.csv",
                 "build_log.json", "manifest-build.json"):
        assert (build_dir / name).exists(), name
    header = json.loads((build_dir / "family.jsonl").read_text()
                        .splitlines()[0])
    assert header["format_version"] == 1
    manifest = json.loads((build_dir / "manifest-build.json").read_text())
    assert manifest["subcommand"] == "build"
    assert manifest["config_hash"] == header["config_hash"]
    report = AuditReport.from_json((build_dir / "build_report.json")
                                   .read_text())
    assert report.verdicts["overall"] == "pass"
    assert report.config["config_hash"] == header["config_hash"]
    assert len(report.config["mode_map"]) == 6
    csv = (build_dir / "build_report.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER


def test_reports_parse_and_rewrite_byte_identically(build_dir, audit_dir):
    for path in (build_dir / "build_report.json",
                 audit_dir / "audit_report.json"):
        text = path.read_text()
        assert AuditReport.from_json(text).to_json() == text, path.name


def test_build_is_reproducible(build_dir, tmp_path):
    out = tmp_path / "again"
    assert main(["build", "--config", str(DEMO_CONFIG),
                 "--out", str(out)]) == 0
    for name in ("family.jsonl", "build_report.json", "build_report.csv",
                 "build_log.json"):
        assert (out / name).read_bytes() == (build_dir / name).read_bytes(), \
            name


def test_build_seed_override_changes_family(build_dir, tmp_path):
    out = tmp_path / "reseeded"
    assert main(["build", "--config", str(DEMO_CONFIG), "--seed", "5",
                 "--out", str(out)]) == 0
    text = (out / "family.jsonl").read_text()
    assert json.loads(text.splitlines()[0])["seed"] == 5
    assert text != (build_dir / "family.jsonl").read_text()


def test_audit_report_artifacts(audit_dir):
    report = AuditReport.from_json((audit_dir / "audit_report.json")
                                   .read_text())
    assert report.verdicts["overall"] == "pass"
    ids = [r.id for r in report.rows()]
    assert "family/window-containment" in ids
    assert "cover/stage-1" in ids and "cover/stage-2" in ids
    assert "porosity/witness" in ids
    manifest = json.loads((audit_dir / "manifest-audit.json").read_text())
    assert manifest["inputs"]["which"] == "construction,cover,porosity"
    csv = (audit_dir / "audit_report.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == len(ids) + 1


def test_audit_analysis_needs_no_family(tmp_path):
    out = tmp_path / "analysis"
    assert main(["audit", "--config", str(DEMO_CONFIG),
                 "--which", "analysis", "--out", str(out)]) == 0
    report = AuditReport.from_json((out / "audit_report.json").read_text())
    assert len(report.sections["analysis_audits"]) == 10
    assert report.sections["construction_audits"] == []


def test_audit_budget_on_mini_corpus(build_dir, tmp_path):
    corpus = tmp_path / "mini_corpus.json"
    corpus.write_text(json.dumps(MINI_CORPUS))
    out = tmp_path / "budget"
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(build_dir / "family.jsonl"),
               "--corpus", str(corpus),
               "--which", "budget,holes-mass", "--out", str(out)])
    assert rc == 0
    report = AuditReport.from_json((out / "audit_report.json").read_text())
    ids = [r.id for r in report.sections["budget_ledgers"]]
    assert any(i.endswith("/verdict") for i in ids)
    assert any(i.startswith("holes-mass/") for i in ids)
    assert any(i.endswith("/alpha") for i in ids)


def test_audit_requires_family_for_family_audits(tmp_path, capsys):
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--which", "construction", "--out", str(tmp_path)])
    assert rc == 1
    assert "--family is required" in capsys.readouterr().err


def test_audit_requires_corpus_for_budget(build_dir, tmp_path, capsys):
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(build_dir / "family.jsonl"),
               "--which", "budget", "--out", str(tmp_path)])
    assert rc == 1
    assert "--corpus is required" in capsys.readouterr().err


def test_audit_rejects_unknown_selection(tmp_path, capsys):
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--which", "nonsense", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown audit selection" in capsys.readouterr().err


@pytest.mark.parametrize("which", [",", ""])
def test_audit_rejects_an_empty_selection(tmp_path, capsys, which):
    out = tmp_path / "out"
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--which", which, "--out", str(out)])
    assert rc == 1
    assert "empty audit selection" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"kind": "bump", "params": {}, "seed": 0},
     "corpus entry 0 (bump): missing parameter 'count'"),
    ({"kind": "plane", "seed": 0,
      "params": {"gradients": [[0.02, 0.0, 0.0]], "offsets": [0.0]}},
     "corpus entry 0 (plane): plane[0]: certified C¹ bound"),
    ({"kind": "bump", "params": [], "seed": 0},
     "entry 0 params is not an object"),
    ({"kind": "plane", "seed": 0,
      "params": {"gradients": [], "offsets": [0.0]}},
     "corpus entry 0 (plane): gradients must be a non-empty list, got []"),
    ({"kind": "plane", "seed": 0,
      "params": {"gradients": [[0.01, 0.0, 0.0]], "offsets": []}},
     "corpus entry 0 (plane): offsets must be a non-empty list, got []"),
    ({"kind": "bump", "seed": 0,
      "params": {"count": 1, "amplitude": [0.0002], "width": [0.1, 0.2]}},
     "corpus entry 0 (bump): amplitude must be a range [lo, hi] of two "
     "finite numbers with lo <= hi, got [0.0002]"),
    ({"kind": "bump", "seed": 0,
      "params": {"count": 1, "amplitude": [0.0003, 0.0001],
                 "width": [0.1, 0.2]}},
     "corpus entry 0 (bump): amplitude must be a range [lo, hi] of two "
     "finite numbers with lo <= hi, got [0.0003, 0.0001]"),
    ({"kind": "multi-bump", "seed": 0,
      "params": {"count": 1, "bumps": 2.5, "amplitude": [1e-4, 2e-4],
                 "width": [0.1, 0.2]}},
     "corpus entry 0 (multi-bump): bumps must be a positive integer, got 2.5"),
    ({"kind": "multi-bump", "seed": 0,
      "params": {"count": 1, "bumps": 0, "amplitude": [1e-4, 2e-4],
                 "width": [0.1, 0.2]}},
     "corpus entry 0 (multi-bump): bumps must be a positive integer, got 0"),
    ({"kind": "mollified-noise", "seed": 0,
      "params": {"count": 1, "grains": True}},
     "corpus entry 0 (mollified-noise): grains must be a positive integer, "
     "got True"),
    ({"kind": "mollified-noise", "seed": 0,
      "params": {"count": 1, "grains": 0}},
     "corpus entry 0 (mollified-noise): grains must be a positive integer, "
     "got 0"),
    ({"kind": "mollified-noise", "seed": 0,
      "params": {"count": 1, "strength": 0}},
     "corpus entry 0 (mollified-noise): strength must be a finite positive "
     "number, got 0"),
    ({"kind": "mollified-noise", "seed": 0,
      "params": {"count": 1, "strength": "0.001"}},
     "corpus entry 0 (mollified-noise): strength must be a finite positive "
     "number, got '0.001'"),
    ({"kind": "mollified-noise", "seed": 0,
      "params": {"count": 1, "grain_width": 0}},
     "corpus entry 0 (mollified-noise): grain_width must be a finite "
     "positive number, got 0"),
    ({"kind": "plane", "seed": 0, "params": {
        "gradients": [[0.5, 0.0, 0.0]], "offsets": [0.0],
        "c1_ceiling": True}},
     "corpus entry 0 (plane): c1_ceiling must be a finite positive number, "
     "got True")],
    ids=["missing-parameter", "over-ceiling", "params-not-object",
         "no-gradients", "no-offsets", "range-of-one", "range-reversed",
         "fractional-bumps", "no-bumps", "bool-grains", "no-grains",
         "no-strength", "string-strength", "no-grain-width", "bool-ceiling"])
def test_audit_malformed_corpus_entry_is_a_usage_error(
        build_dir, tmp_path, capsys, entry, message):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([entry]))
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(build_dir / "family.jsonl"),
               "--corpus", str(corpus), "--which", "budget",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_audit_an_empty_corpus_spec_is_a_usage_error(build_dir, tmp_path,
                                                      capsys):
    # a spec that yields no field must not pass with no rows
    corpus = tmp_path / "corpus.json"
    corpus.write_text("[]")
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(build_dir / "family.jsonl"),
               "--corpus", str(corpus), "--which", "budget,holes-mass",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: the corpus spec lists no groups" in capsys.readouterr().err
    assert not (tmp_path / "out" / "audit_report.json").exists()


def test_audit_refuses_mismatched_config(build_dir, tmp_path, capsys):
    # same parameters, different bytes: the config hash is byte-exact
    doc = json.loads(DEMO_CONFIG.read_text())
    other = tmp_path / "rebytes.json"
    other.write_text(json.dumps(doc, indent=4))
    rc = main(["audit", "--config", str(other),
               "--family", str(build_dir / "family.jsonl"),
               "--which", "construction", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "refusing to mix" in capsys.readouterr().err


def test_audit_flags_tampered_family(build_dir, tmp_path, capsys):
    fam = deserialize_family((build_dir / "family.jsonl").read_text())
    ids = fam.stage_ids(1)
    centers = fam.base_centers.copy()
    centers[ids[1]] = centers[ids[0]] + 1e-4
    broken = dataclasses.replace(fam, base_centers=centers)
    bad_path = tmp_path / "tampered.jsonl"
    bad_path.write_text(serialize_family(broken))
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(bad_path), "--which", "construction",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "pair-" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", sorted(FAMILY_TAMPERS))
def test_audit_rejects_a_tampered_family_file(tampered_families, tamper,
                                              tmp_path, capsys):
    # a record that no longer repeats its derived plane index or lift, or
    # that holds NaN or Infinity, is a usage error naming its line
    path = tmp_path / "tampered.jsonl"
    path.write_text(tampered_families[tamper])
    rc = main(["audit", "--config", str(DEMO_CONFIG), "--family", str(path),
               "--which", "construction,cover,porosity",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"line {TAMPERED_LINE}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_audit_construction_fails_an_exhausted_floor_replay(tmp_path,
                                                           capsys):
    # the level-1 hole's footprint covers the whole window, so the level-2
    # floor replay draws no uncovered point
    base = np.array([[0.5, 0.5, 0.5], [0.52, 0.5, 0.5]])
    ts = np.array([0.11, 0.01])
    family = HoleFamily(
        n=3, s=0.25, r=1.0 / 64.0, L=10.0 ** 0.5, E=1.5, epsilons=(0.0025,),
        seed=0, config_hash="", ks=np.ones(2, dtype=np.int64),
        levels=np.array([1, 2]), base_centers=base, ts=ts)
    family_path = tmp_path / "covered.jsonl"
    family_path.write_text(serialize_family(family))
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(family_path), "--which", "construction",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "floor replay of stage 1 level 2" in capsys.readouterr().err


def _audit_overlapping_hit_holes(tmp_path, stages):
    """``porous audit --which budget`` on two stage-1 holes whose primed
    balls overlap (gap 2.5t < 2Et = 3t), both hit by a gentle plane, plus
    one separate stage-2 hole when ``stages`` is 2; returns the exit code
    and the status of each budget row."""
    t, t2 = 0.004, 0.002
    base = np.array([[0.5, 0.5, 0.5], [0.5 + 2.5 * t, 0.5, 0.5],
                     [0.45, 0.45, 0.5]])[:stages + 1]
    ts = np.array([t, t, t2])[:stages + 1]
    count = len(ts)
    family = HoleFamily(
        n=3, s=0.25, r=1.0 / 64.0, L=10.0 ** 0.5, E=1.5,
        epsilons=(0.0025, 0.00125)[:stages], seed=0, config_hash="",
        ks=np.array([1, 1, 2])[:count], levels=np.ones(count, dtype=np.int64),
        base_centers=base, ts=ts)
    family_path = tmp_path / "overlap.jsonl"
    family_path.write_text(serialize_family(family))
    corpus = tmp_path / "plane.json"
    corpus.write_text(json.dumps([{
        "kind": "plane", "seed": 0,
        "params": {"gradients": [[0.011, 0.0, 0.0]], "offsets": [2.0 * t]}}]))
    out = tmp_path / "budget"
    rc = main(["audit", "--config", str(DEMO_CONFIG),
               "--family", str(family_path), "--corpus", str(corpus),
               "--which", "budget", "--out", str(out)])
    report = AuditReport.from_json((out / "audit_report.json").read_text())
    return rc, {r.id.split("/", 2)[2]: r.status
                for r in report.sections["budget_ledgers"]}


def test_audit_budget_fails_the_row_of_overlapping_hit_holes(tmp_path,
                                                            capsys):
    # the residue-disjoint row must read fail and name the holes instead
    # of aborting the audit
    rc, status = _audit_overlapping_hit_holes(tmp_path, stages=1)
    assert rc == 2
    assert status.pop("stage-1/residue-disjoint") == "fail"
    assert set(status.values()) == {"pass"}
    err = capsys.readouterr().err
    assert err.count("primed balls of holes 0 and 1 overlap") == 1


def test_audit_budget_skips_smoothing_over_overlapping_hit_holes(tmp_path):
    # below the last stage the overlapping d-holes cannot be smoothed
    # over; the stage fails without smoothing and stage 2 runs
    rc, status = _audit_overlapping_hit_holes(tmp_path, stages=2)
    assert rc == 2
    assert status.pop("stage-1/residue-disjoint") == "fail"
    assert not any(row.startswith("stage-1/smoothing") for row in status)
    assert "stage-1/hit-consistency" not in status
    assert {"stage-2/u-mass", "stage-2/d-energy",
            "stage-2/residue-disjoint"} <= set(status)
    assert set(status.values()) == {"pass"}


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["build"]["n"] = 2
    bad.write_text(json.dumps(doc))
    rc = main(["build", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["build"],
                                     ["audit", "--which", "analysis"]])
def test_seed_outside_the_schema_range_is_a_usage_error(tmp_path, capsys,
                                                        command):
    out = tmp_path / "out"
    rc = main([*command, "--config", str(DEMO_CONFIG), "--seed", "-1",
               "--out", str(out)])
    assert rc == 1
    assert ("seed must be an integer in [0, 18446744073709551615], got -1"
            in capsys.readouterr().err)
    assert not out.exists()


def test_strict_regime_config_is_refused(tmp_path, capsys):
    doc = json.loads(DEMO_CONFIG.read_text())
    eps = 0.002
    doc["build"].update({"depth": 1, "epsilons": [eps],
                         "stop_fractions": [0.0625], "E": 1.0 / eps**3})
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(doc))
    rc = main(["build", "--config", str(strict),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "construction failed" in err
    assert "relaxed" in err


def test_report_identity_round_trip(audit_dir, tmp_path):
    out = tmp_path / "merged"
    assert main(["report", str(audit_dir / "audit_report.json"),
                 "--out", str(out)]) == 0
    original = AuditReport.from_json((audit_dir / "audit_report.json")
                                     .read_text())
    merged = AuditReport.from_json((out / "merged_report.json").read_text())
    assert merged.rows() == original.rows()
    assert merged.verdicts == original.verdicts
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "check,id,measured,bound,margin"
    assert len(series) == len(original.rows()) + 1
    keys = [tuple(line.split(",")[:2]) for line in series[1:]]
    assert keys == sorted(keys)


def test_report_merges_reports_of_one_run(build_dir, audit_dir, tmp_path):
    out = tmp_path / "merged"
    assert main(["report", str(build_dir / "build_report.json"),
                 str(audit_dir / "audit_report.json"),
                 "--out", str(out)]) == 0
    merged = AuditReport.from_json((out / "merged_report.json").read_text())
    a = AuditReport.from_json((build_dir / "build_report.json").read_text())
    b = AuditReport.from_json((audit_dir / "audit_report.json").read_text())
    assert len(merged.rows()) == len(a.rows()) + len(b.rows())
    assert merged.verdicts["overall"] == "pass"


def test_report_refuses_mixed_hashes(audit_dir, tmp_path, capsys):
    foreign = AuditReport(config={"config_hash": "f" * 64})
    path = tmp_path / "foreign.json"
    path.write_text(foreign.to_json())
    rc = main(["report", str(audit_dir / "audit_report.json"), str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "mixed config hashes" in capsys.readouterr().err


def test_report_refuses_mixed_seeds(audit_dir, tmp_path, capsys):
    # same config file, so the same hash, run with another --seed
    report = AuditReport.from_json((audit_dir / "audit_report.json")
                                   .read_text())
    reseeded = AuditReport({**report.config,
                            "seed": report.config["seed"] + 2},
                           report.sections)
    path = tmp_path / "reseeded.json"
    path.write_text(reseeded.to_json())
    rc = main(["report", str(audit_dir / "audit_report.json"), str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "mixed seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_rejects_unknown_format(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text('{"format": "audit-report/9"}')
    rc = main(["report", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "cannot parse report" in capsys.readouterr().err


_EMPTY_REPORT = json.loads(AuditReport({}).to_json())
_ROW = AuditRow("a", "c", 1.0, 2.0, 1.0, "pass").as_dict()
MALFORMED_REPORTS = {
    "row-missing-keys": {**_EMPTY_REPORT,
                         "porosity": [{"id": "a", "status": "pass"}]},
    "measured-not-a-number": {**_EMPTY_REPORT,
                              "porosity": [{**_ROW, "measured": "high"}]},
    "row-not-an-object": {**_EMPTY_REPORT, "porosity": ["a"]},
    "top-level-list": [],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_report_rejects_malformed_input(tmp_path, capsys, case):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(MALFORMED_REPORTS[case]))
    rc = main(["report", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot parse report" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row, code", [
    (AuditRow.at_least("porosity/witness", "porosity-witness", 0.0, 0.3), 2),
    (AuditRow.zero_count("budget/f/stage-1/classification", "u-d-split", 1,
                         nonzero="indeterminate"), 3),
])
def test_report_exit_code_is_the_merged_verdict(tmp_path, row, code):
    path = tmp_path / "report.json"
    path.write_text(AuditReport({"config_hash": "h"},
                                {"porosity": [row]}).to_json())
    assert main(["report", str(path), "--out", str(tmp_path / "out")]) \
        == code


def test_audit_no_longer_takes_workers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--config", str(DEMO_CONFIG), "--which", "analysis",
              "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_report_missing_input(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "report not found" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("n", "x"), ("s", float("nan")),
                                       ("E", -1.0)])
def test_audit_rejects_a_malformed_family_header(demo_family, tmp_path, key,
                                                 value):
    header, rest = serialize_family(demo_family).split("\n", 1)
    edited = json.loads(header)
    edited[key] = value
    path = tmp_path / "family.jsonl"
    path.write_text(json.dumps(edited) + "\n" + rest)
    done = _python_m_porous(
        "audit", "--config", str(DEMO_CONFIG), "--family", str(path),
        "--which", "construction", "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: line 1: {key} ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_audit_rejects_a_family_header_with_too_few_epsilons(
        demo_family, tmp_path, capsys):
    # the budget reads one epsilon per stage; a header listing fewer is a
    # parse error on line 1, not an IndexError inside the audit
    header, rest = serialize_family(demo_family).split("\n", 1)
    edited = json.loads(header)
    edited["epsilons"] = edited["epsilons"][:1]
    path = tmp_path / "family.jsonl"
    path.write_text(json.dumps(edited) + "\n" + rest)
    corpus = tmp_path / "mini_corpus.json"
    corpus.write_text(json.dumps(MINI_CORPUS))
    rc = main(["audit", "--config", str(DEMO_CONFIG), "--family", str(path),
               "--corpus", str(corpus), "--which", "budget",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert ("line 1: epsilons lists 1 value for 2 stages"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["construction", "cover", "porosity",
                                   "budget"])
def test_audit_rejects_a_family_with_no_holes(demo_family, tmp_path, capsys,
                                              which):
    # a header-only file is no depth-0 family: every family audit refuses
    # it instead of passing with no rows or failing inside the audit
    path = tmp_path / "family.jsonl"
    path.write_text(serialize_family(demo_family).split("\n", 1)[0] + "\n")
    corpus = tmp_path / "mini_corpus.json"
    corpus.write_text(json.dumps(MINI_CORPUS))
    rc = main(["audit", "--config", str(DEMO_CONFIG), "--family", str(path),
               "--corpus", str(corpus), "--which", which,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: the family lists no holes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def _python_m_porous(*args: str) -> subprocess.CompletedProcess:
    """``python -m porous *args`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "porous", *args],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)


def test_python_m_porous_runs_the_cli(tmp_path):
    done = _python_m_porous("report", str(tmp_path / "absent.json"),
                            "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert "report not found" in done.stderr


def _packages_loaded_by(code: str) -> set:
    """The top-level modules outside the standard library that a fresh
    interpreter holds after running ``code``."""
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\n"
         "print(*{name.partition('.')[0] for name in sys.modules})"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
        check=True)
    return set(done.stdout.split()) - set(sys.stdlib_module_names)


def test_cli_start_up_loads_numpy_and_no_other_package():
    # each command pays its interpreter's start-up; what the site hooks
    # load into a bare interpreter is not the package's doing
    bare = _packages_loaded_by("pass")
    loaded = _packages_loaded_by("import porous.cli") - bare
    assert loaded - {"numpy"} == {"porous"}


HUGE = 10**400      # a JSON integer too large for a float


def _plane_group(**params):
    return {"kind": "plane", "seed": 0, "params": {
        "gradients": [[0.011, 0.0, 0.0]], "offsets": [0.0082], **params}}


def _bump_group(amplitude):
    return {"kind": "bump", "seed": 0, "params": {
        "count": 1, "amplitude": amplitude, "width": [0.1, 0.2]}}


def _demo_config(audit=(), **build):
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["build"].update(build)
    doc["audit"].update(audit)
    return doc


def _record(line, **edit):
    """Edit fields of the demo family's record on ``line``."""
    def apply(lines):
        rec = json.loads(lines[line - 1])
        rec.update(edit)
        lines[line - 1] = json.dumps(rec)
    return apply


def _header(lines):
    lines[0] = json.dumps({**json.loads(lines[0]), "extra": 1})


# each malformed input file: (the file, its contents, the text of the error
# line, which names where in the file and which field)
MALFORMED_INPUTS = {
    "corpus-huge-ceiling": (
        "corpus", [_plane_group(c1_ceiling=HUGE)],
        "corpus entry 0 (plane): c1_ceiling must be a finite positive"),
    "corpus-huge-range": (
        "corpus", [_bump_group([0, HUGE])],
        "corpus entry 0 (bump): amplitude must be a finite number"),
    "corpus-infinite-range": (
        "corpus", [_bump_group([0, math.inf])],
        "corpus entry 0 (bump): amplitude must be a finite number, got inf"),
    "corpus-string-offset": (
        "corpus", [_plane_group(offsets=["0.0082"])],
        "corpus entry 0 (plane): offsets must be a finite number, "
        "got '0.0082'"),
    "corpus-string-gradient": (
        "corpus", [_plane_group(gradients=[["0.001", "0", "0"]])],
        "corpus entry 0 (plane): gradients must be a finite number, "
        "got '0.001'"),
    "corpus-nan-offset": (
        "corpus", [_plane_group(offsets=[math.nan])],
        "corpus entry 0 (plane): offsets must be a finite number, got nan"),
    "corpus-misspelled-parameter": (
        "corpus", [_plane_group(c1_celing=0.01)],
        "corpus entry 0 (plane): unknown parameter 'c1_celing'"),
    "corpus-unknown-entry-key": (
        "corpus", [{**_plane_group(), "sed": 1}],
        "entry 0 has unknown keys ['sed']"),
    "report-huge-bound": (
        "report", {**_EMPTY_REPORT, "porosity": [{**_ROW, "bound": HUGE}]},
        "bound must be a number, got 1000"),
    "config-infinite-L": (
        "config", _demo_config(L=math.inf),
        "invalid config: /build/L must be a finite number, got inf"),
    "config-huge-L": (
        "config", _demo_config(L=HUGE),
        "invalid config: /build/L must be a finite number, got 1000"),
    "config-huge-n": (
        "config", _demo_config(n=HUGE),
        "invalid config: /build/n must be an integer in [3, 63], got 1000"),
    "config-huge-pool-size": (
        "config", _demo_config(pool_size=HUGE),
        "invalid config: /build/pool_size must be an integer in "
        "[64, 65536], got 1000"),
    "config-huge-floor-samples": (
        "config", _demo_config(audit={"floor_samples": HUGE}),
        "invalid config: /audit/floor_samples must be an integer in "
        "[64, 65536], got 1000"),
    "config-whole-float-depth": (
        "config", _demo_config(depth=2.0),
        "invalid config: /build/depth must be a positive integer, got 2.0"),
    "config-whole-float-pool-size": (
        "config", _demo_config(pool_size=4096.0),
        "invalid config: /build/pool_size must be an integer in "
        "[64, 65536], got 4096.0"),
    "config-whole-float-porosity-samples": (
        "config", _demo_config(audit={"porosity_samples": 1000.0}),
        "invalid config: /audit/porosity_samples must be an integer in "
        "[1, 65536], got 1000.0"),
    "config-depth-past-epsilons": (
        "config", _demo_config(depth=3),
        "invalid config: /build/epsilons must list one number per stage "
        "(3), got 2"),
    "config-depth-past-stop-fractions": (
        "config", _demo_config(depth=3, epsilons=[0.0025, 0.00125, 0.001]),
        "invalid config: /build/stop_fractions must list one number per "
        "stage (3), got 2"),
    "family-unknown-header-key": (
        "family", _header, "line 1: header has unknown keys ['extra']"),
    "family-string-radius": (
        "family", _record(TAMPERED_LINE, t="0.0208"),
        f"line {TAMPERED_LINE}: malformed record: "
        "ValueError('t must be a number')"),
    "family-fractional-level": (
        "family", _record(TAMPERED_LINE, l=1.5),
        f"line {TAMPERED_LINE}: malformed record: "
        "ValueError('l must be an integer')"),
    "family-bool-level": (
        "family", _record(TAMPERED_LINE, l=True),
        f"line {TAMPERED_LINE}: malformed record: "
        "ValueError('l must be an integer')"),
    "family-bool-base-entry": (
        "family", _record(TAMPERED_LINE, base_center=[True, 0.5, 0.5]),
        f"line {TAMPERED_LINE}: malformed record: "
        "ValueError('base_center must be a number, got True')"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_every_malformed_input_is_one_error_line(demo_family, tmp_path,
                                                 case):
    what, content, message = MALFORMED_INPUTS[case]
    path = tmp_path / f"{what}.json"
    family = tmp_path / "family.jsonl"
    lines = serialize_family(demo_family).splitlines()
    if what == "family":
        content(lines)
    family.write_text("\n".join(lines) + "\n")
    if what != "family":
        path.write_text(json.dumps(content))
    config = path if what == "config" else DEMO_CONFIG
    out = str(tmp_path / "out")
    args = {"config": ["build", "--config", str(config), "--out", out],
            "report": ["report", str(path), "--out", out],
            "family": ["audit", "--config", str(config), "--family",
                       str(family), "--which", "construction", "--out", out],
            "corpus": ["audit", "--config", str(config), "--family",
                       str(family), "--corpus", str(path), "--which",
                       "budget", "--out", out]}[what]
    done = _python_m_porous(*args)
    assert done.returncode == 1
    errors = [line for line in done.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], done.stderr
    if what == "report":
        assert str(path) in errors[0]
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
