"""Shared fixtures: the demo build and corpus are expensive, so build once."""
import json
import math
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from porous import budget, build_family, generate_from_spec, load_config, \
    load_corpus_spec, serialize_family, verification

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG_PATH = ROOT / "demos" / "config" / "demo.json"
DEMO_CORPUS_PATH = ROOT / "demos" / "config" / "corpus.json"


@pytest.fixture(scope="session")
def demo_config():
    return load_config(DEMO_CONFIG_PATH)


@pytest.fixture(scope="session")
def demo_build(demo_config):
    return build_family(demo_config.build)


@pytest.fixture(scope="session")
def demo_family(demo_build):
    return demo_build[0]


@pytest.fixture(scope="session")
def demo_log(demo_build):
    return demo_build[1]


def _raise_lift(rec):
    rec["lifted_center"][-1] += 0.5


def _other_plane(rec):
    rec["m"] = 7


def _nan_radius(rec):
    rec["t"] = math.nan


def _infinite_base(rec):
    rec["base_center"][0] = math.inf


def _string_radius(rec):
    rec["t"] = str(rec["t"])


def _fractional_level(rec):
    rec["l"] += 0.5


def _string_base(rec):
    rec["base_center"][1] = str(rec["base_center"][1])


def _bool_stage(rec):
    # true equals 1, this record's stage, so only its type is wrong
    assert rec["k"] == 1
    rec["k"] = True


def _bool_level(rec):
    assert rec["l"] == 1
    rec["l"] = True


def _false_base(rec):
    # numpy reads false among numbers as 0, so only its type is wrong
    rec["base_center"][2] = False


def _extra_key(rec):
    # a key the writer does not write, which serializing would drop
    rec["extra"] = 1


# one edit of one record each, all of which the family loader must reject
FAMILY_TAMPERS = {"lifted-center-raised": _raise_lift,
                  "plane-index-7": _other_plane,
                  "radius-nan": _nan_radius,
                  "base-infinite": _infinite_base,
                  "radius-string": _string_radius,
                  "level-fractional": _fractional_level,
                  "base-string": _string_base,
                  "stage-bool": _bool_stage,
                  "level-bool": _bool_level,
                  "base-false": _false_base,
                  "unknown-key": _extra_key}
TAMPERED_LINE = 10


@pytest.fixture(scope="session")
def tampered_families(demo_family):
    """Per name in ``FAMILY_TAMPERS``, the demo family's file text with
    that edit made on line ``TAMPERED_LINE``."""
    lines = serialize_family(demo_family).split("\n")
    out = {}
    for name, edit in FAMILY_TAMPERS.items():
        rec = json.loads(lines[TAMPERED_LINE - 1])
        edit(rec)
        edited = json.dumps(rec, separators=(",", ":"))
        out[name] = "\n".join(
            lines[:TAMPERED_LINE - 1] + [edited] + lines[TAMPERED_LINE:])
    return out


@pytest.fixture(scope="session")
def corpus_spec():
    return load_corpus_spec(DEMO_CORPUS_PATH)


@pytest.fixture(scope="session")
def corpus_entries(corpus_spec, demo_config):
    return generate_from_spec(corpus_spec, demo_config.build.window)


@pytest.fixture(scope="session")
def corpus_budgets(demo_family, corpus_entries):
    """Per corpus field, keyed by source: its budget ledger (or the
    exception it raised, kept for honest reporting), and the
    ``(k, patch, hit_ids)`` that each of its stages handed the
    disjointness audit, in stage order."""
    audit = verification.disjointness_audit
    stages = defaultdict(list)

    def recording(family, k, patch, hit_ids):
        # a smoothed stage's patch is named "<source>|smoothed:<k>"
        stages[patch.source.split("|")[0]].append((k, patch, hit_ids))
        return audit(family, k, patch, hit_ids)

    def one(entry):
        try:
            return entry.patch.source, budget(entry.patch, demo_family)
        except Exception as exc:                    # noqa: BLE001
            return entry.patch.source, exc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "disjointness_audit", recording)
        with ThreadPoolExecutor(max_workers=8) as pool:
            ledgers = dict(pool.map(one, corpus_entries))
    return ledgers, dict(stages)


@pytest.fixture(scope="session")
def corpus_ledgers(corpus_budgets):
    return corpus_budgets[0]


@pytest.fixture(scope="session")
def plane_entries(corpus_entries):
    return [e for e in corpus_entries if e.kind == "plane"]


@pytest.fixture(scope="session")
def nonplane_entries(corpus_entries):
    return [e for e in corpus_entries if e.kind != "plane"]
