"""Workload inputs, operations and the correctness gate of the benchmark.

Every operation is one or two in-process ``porous.cli.main`` calls that
write into their own directory, so the measured path is what a user runs:
argument parsing, config loading, the library, and report writing.

Workloads (the reasons are in README.md next to this file):

* ``build``: ``porous build`` then ``porous audit --which cover,porosity``
  on the shipped demo config, once per demo seed in ``BUILD_SEEDS``;
* ``audit-planes``: ``porous audit --which budget,holes-mass`` on
  one-field corpus specs of shipped plane fields that hit holes;
* ``audit-sweep``: the same audit on each non-plane field of the shipped
  bump, multi-bump and mollified-noise groups, plus one
  ``porous audit --which analysis``.

The audit workloads build the demo family at seed 0 during set-up.  Run
as a script, this module makes one set-up in a fresh interpreter:

    python3 bench/workloads.py WORKLOAD SEED DIR
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "demos" / "config" / "demo.json"
DEMO_CORPUS = ROOT / "demos" / "config" / "corpus.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Demo seeds whose families are the size of the shipped seed-0 family
# (1,024-1,051 holes).  Seeds 1 and 8 are known failing inputs: their
# builds exceed the memory cap (README.md).
BUILD_SEEDS = (0, 2, 3, 7, 9)
KNOWN_FAILING_BUILD_SEED = 1

# Workload seeds repeat with this period, so that a stored reference exists
# for every seed the harness accepts.  Only audit-sweep draws its inputs
# from the seed; the other workloads take it for the order of a pass.
SEED_PERIOD = 16
SEEDED = ("audit-sweep",)

# Shipped plane fields audited by audit-planes: two at offset 0.0082 and one
# at 0.0092.  The rows at 0.0102 and 0.011 take 23-36 s per ledger (README.md).
PLANES = (0, 3, 6)

NONPLANE_GROUPS = ("bump", "multi-bump", "mollified-noise")


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the key of its stored reference."""

    key: str
    which: str
    demo_seed: int = 0
    spec: Optional[list] = None      # one-field corpus spec, if any


class OpFailure(Exception):
    """An operation's exit code or report rows are wrong."""


def effective_seed(seed: int) -> int:
    return seed % SEED_PERIOD


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4],
                         "little")
    return np.random.default_rng([tag, effective_seed(seed)])


def build_ops(seed: int) -> list[Op]:
    order = _rng("build", seed).permutation(len(BUILD_SEEDS))
    return [Op(key=f"build/demo-seed-{BUILD_SEEDS[i]}", which="build",
               demo_seed=BUILD_SEEDS[i]) for i in order]


def plane_ops(seed: int, corpus: list) -> list[Op]:
    """The shipped planes in PLANES, each as its own one-field spec, in an
    order drawn from the seed."""
    group = next(g for g in corpus if g["kind"] == "plane")
    params = group["params"]
    rows = [(o, g) for o in params["offsets"] for g in params["gradients"]]
    ops = []
    for index in PLANES:
        offset, gradient = rows[index]
        spec = [{"kind": "plane", "seed": group["seed"],
                 "params": {"gradients": [gradient], "offsets": [offset]}}]
        ops.append(Op(key=f"audit-planes/plane[{index}]",
                      which="budget,holes-mass", spec=spec))
    order = _rng("audit-planes", seed).permutation(len(ops))
    return [ops[i] for i in order]


def sweep_ops(seed: int, corpus: list) -> list[Op]:
    """Every field of the non-plane groups as its own one-field spec; the
    field seeds are the shipped group seed offset by the workload seed."""
    eff = effective_seed(seed)
    ops = [Op(key="audit-sweep/analysis", which="analysis")]
    for group in corpus:
        if group["kind"] not in NONPLANE_GROUPS:
            continue
        for i in range(int(group["params"]["count"])):
            spec = [{"kind": group["kind"],
                     "seed": group["seed"] + 1000 * eff + i,
                     "params": {**group["params"], "count": 1}}]
            ops.append(Op(key=f"audit-sweep/seed-{eff}/{group['kind']}-{i}",
                          which="budget,holes-mass", spec=spec))
    order = _rng("audit-sweep", seed).permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = ("build", "audit-planes", "audit-sweep")
INPUT_SIZE = {
    "build": {"demo_seeds": list(BUILD_SEEDS),
              "holes_per_family": "1024-1051"},
    "audit-planes": {"plane_fields": len(PLANES), "family_holes": 1044},
    "audit-sweep": {"nonplane_fields": 34, "analysis_suites": 1,
                    "family_holes": 1044},
}


def make_ops(workload: str, seed: int) -> list[Op]:
    corpus = json.loads(DEMO_CORPUS.read_text())
    if workload == "build":
        return build_ops(seed)
    if workload == "audit-planes":
        return plane_ops(seed, corpus)
    if workload == "audit-sweep":
        return sweep_ops(seed, corpus)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> int:
    """One ``porous`` command with its console output captured."""
    from porous import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc == 1:
        raise OpFailure(f"porous {argv[0]} exited 1: {sink.getvalue()}")
    return rc


@dataclass
class Workspace:
    """Set-up output: the operations, their input files, the family."""

    root: Path
    ops: list
    family: Optional[Path]
    spec_paths: dict


def workspace(workload: str, seed: int, root: Path) -> Workspace:
    """Where a set-up into ``root`` puts the workload's inputs."""
    ops = make_ops(workload, seed)
    spec_paths = {op.key: root / f"spec-{i}.json"
                  for i, op in enumerate(ops) if op.spec is not None}
    family = None if workload == "build" else root / "family" / "family.jsonl"
    return Workspace(root=root, ops=ops, family=family, spec_paths=spec_paths)


def setup(workload: str, seed: int, root: Path) -> Workspace:
    """Generate the inputs and, for audit workloads, build the demo family
    at the shipped seed: everything an operation reads."""
    ws = workspace(workload, seed, root)
    root.mkdir(parents=True)
    for op in ws.ops:
        if op.spec is not None:
            ws.spec_paths[op.key].write_text(json.dumps(op.spec))
    if ws.family is not None:
        _cli(["build", "--config", str(DEMO_CONFIG),
              "--out", str(ws.family.parent)])
    return ws


def run_op(ws: Workspace, op: Op, out: Path) -> list[Path]:
    """Run one operation into ``out``; returns the report files written."""
    config = str(DEMO_CONFIG)
    if op.which == "build":
        _cli(["build", "--config", config, "--seed", str(op.demo_seed),
              "--out", str(out)])
        _cli(["audit", "--config", config, "--seed", str(op.demo_seed),
              "--family", str(out / "family.jsonl"),
              "--which", "cover,porosity", "--out", str(out)])
        return [out / "build_report.json", out / "audit_report.json"]
    argv = ["audit", "--config", config, "--which", op.which,
            "--out", str(out)]
    if op.spec is not None:
        argv += ["--family", str(ws.family),
                 "--corpus", str(ws.spec_paths[op.key])]
    _cli(argv)
    return [out / "audit_report.json"]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

SECTIONS = ("construction_audits", "analysis_audits", "budget_ledgers",
            "porosity")


def summarize(report: Path) -> dict:
    """Row ids and statuses of one report, plus the sha256 of its bytes."""
    raw = report.read_bytes()
    doc = json.loads(raw)
    rows = [(row["id"], row["status"]) for section in SECTIONS
            for row in doc[section]]
    listing = "".join(f"{rid}\t{status}\n" for rid, status in rows)
    return {"rows": len(rows),
            "rows_sha256": hashlib.sha256(listing.encode()).hexdigest(),
            "not_pass": [[rid, status] for rid, status in rows
                         if status != "pass"],
            "sha256": hashlib.sha256(raw).hexdigest()}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["ops"]


def check(op: Op, reports: list[Path], reference: dict) -> list[str]:
    """Raise OpFailure when row ids or statuses differ from the stored
    reference; return one message per report whose bytes differ."""
    expected = reference.get(op.key)
    if expected is None:
        raise OpFailure(f"{op.key}: no stored reference")
    digest_changes = []
    for path in reports:
        got = summarize(path)
        want = expected[path.name]
        for field in ("rows", "rows_sha256", "not_pass"):
            if got[field] != want[field]:
                raise OpFailure(
                    f"{op.key}: {path.name} {field} differs from the "
                    f"reference: {got[field]!r} != {want[field]!r}")
        if got["sha256"] != want["sha256"]:
            digest_changes.append(
                f"{op.key} {path.name} sha256 {got['sha256']} "
                f"(reference {want['sha256']})")
    return digest_changes


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


if __name__ == "__main__":
    # loading the program is part of a set-up, also where nothing calls it
    sys.path.insert(0, str(ROOT / "src"))
    import porous.cli  # noqa: F401
    setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
