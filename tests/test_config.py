import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from porous import (AuditSettings, BuildConfig, ConfigError, geometry,
                    load_config, parse_config)
from porous.config import CONFIG_SCHEMA, config_hash_of, validate_config_doc
from porous.sampling import SamplingBudget
from porous.verification import DBOUND_C, LEDGER_C, WITNESS_TOL

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config" \
    / "demo.json"


def _demo_doc():
    return json.loads(DEMO_CONFIG.read_text())


def _raw(doc):
    return json.dumps(doc, indent=2).encode()


def test_default_doc_parses_cleanly():
    doc = _demo_doc()
    cfg = parse_config(_raw(doc))
    assert cfg.build.n == 3
    assert cfg.build.depth == len(cfg.build.epsilons)
    # the field defaults are the shipped demo, which the tests build from
    assert cfg.build == dataclasses.replace(BuildConfig(),
                                            config_hash=cfg.config_hash)
    assert cfg.audit == AuditSettings()


def test_demo_config_loads():
    cfg = load_config(DEMO_CONFIG)
    raw = DEMO_CONFIG.read_bytes()
    assert cfg.config_hash == hashlib.sha256(raw).hexdigest()
    assert cfg.raw == raw
    assert cfg.build.config_hash == cfg.config_hash
    assert cfg.path == str(DEMO_CONFIG)


def test_hash_covers_exact_bytes():
    doc = _demo_doc()
    a = parse_config(_raw(doc))
    b = parse_config(json.dumps(doc).encode())     # same doc, fewer bytes
    assert a.doc == b.doc
    assert a.config_hash != b.config_hash
    assert config_hash_of(b"x") == hashlib.sha256(b"x").hexdigest()


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/config.json")


def test_not_json_raises():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(b"{nope")


def test_non_object_raises():
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(b"[1, 2]")


def test_every_schema_violation_is_reported():
    doc = _demo_doc()
    doc["build"]["n"] = 2              # below minimum
    doc["build"]["s"] = 0.5            # at the open upper bound
    doc["build"]["seed"] = -1          # negative
    with pytest.raises(ConfigError) as err:
        parse_config(_raw(doc))
    msg = str(err.value)
    assert "at /build/n:" in msg
    assert "at /build/s:" in msg
    assert "at /build/seed:" in msg


def test_unknown_keys_are_rejected():
    doc = _demo_doc()
    doc["extra"] = 1
    doc["build"]["typo_knob"] = 2
    with pytest.raises(ConfigError) as err:
        parse_config(_raw(doc))
    msg = str(err.value)
    assert "extra" in msg and "typo_knob" in msg


def test_missing_required_section_points_at_root():
    with pytest.raises(ConfigError, match="at /:"):
        validate_config_doc({"format_version": 1})


def test_format_version_is_pinned():
    doc = _demo_doc()
    doc["format_version"] = 2
    with pytest.raises(ConfigError, match="format_version"):
        parse_config(_raw(doc))


def test_cross_field_errors_become_config_errors():
    doc = _demo_doc()
    doc["build"]["depth"] = 3          # schedule lists only have length 2
    with pytest.raises(ConfigError, match="invalid config"):
        parse_config(_raw(doc))


@pytest.mark.parametrize("key, value, field", [
    ("L", math.inf, "L"), ("L", math.nan, "L"),
    pytest.param("L", 10**400, "L", id="L-huge-int"),
    ("r", math.nan, "r"), ("epsilons", [0.0025, math.inf], "epsilons"),
    ("stop_fractions", [0.25, math.nan], "stop_fractions")])
def test_config_reals_must_be_finite(key, value, field):
    # the schema's number type admits Infinity, NaN and any integer; each
    # real converts through errors.real, which names the field's pointer
    doc = _demo_doc()
    doc["build"][key] = value
    with pytest.raises(ConfigError, match=f"^invalid config: /build/{field} "
                       "must be a finite number"):
        parse_config(_raw(doc))


@pytest.mark.parametrize("pointer", [
    "/build/n", "/build/depth", "/build/seed", "/build/max_levels",
    "/build/pool_size", "/build/budget/strata", "/build/budget/per_stratum",
    "/audit/seed", "/audit/budget/per_stratum", "/audit/dbound_budget/strata",
    "/audit/porosity_samples", "/audit/floor_samples"])
def test_config_integers_refuse_a_whole_float(pointer):
    # the schema's integer type admits 2.0; each integer converts through
    # errors.integer, which names the field's pointer
    doc = _demo_doc()
    *path, key = pointer.split("/")[1:]
    section = doc
    for part in path:
        section = section[part]
    section[key] = float(section[key])
    with pytest.raises(ConfigError, match=f"^invalid config: {pointer} must "
                       r"be an? (positive )?integer.*, got \d+\.0$"):
        parse_config(_raw(doc))


def test_config_n_fits_the_cell_hash():
    # a lifted point has n + 1 axes, one cell-hash multiplier each
    assert CONFIG_SCHEMA["properties"]["build"]["properties"]["n"][
        "maximum"] + 1 == len(geometry._CELL_HASH)
    doc = _demo_doc()
    doc["build"]["n"] = 63
    assert parse_config(_raw(doc)).build.n == 63
    for n in (64, 10**400):
        doc["build"]["n"] = n
        with pytest.raises(ConfigError, match="^invalid config: at /build/n: "
                           ".* is greater than the maximum of 63$"):
            parse_config(_raw(doc))


def test_schema_violations_are_one_line():
    doc = _demo_doc()
    doc["build"]["n"] = 2
    doc["build"]["seed"] = -1
    with pytest.raises(ConfigError, match="^invalid config: at /build/n: "
                       "2 is less than the minimum of 3; at /build/seed: "
                       "-1 is less than the minimum of 0$"):
        parse_config(_raw(doc))


def test_audit_section_is_optional_with_defaults():
    doc = _demo_doc()
    del doc["audit"]
    del doc["workers"]
    cfg = parse_config(_raw(doc))
    assert cfg.audit == AuditSettings()


def test_audit_overrides_apply():
    doc = _demo_doc()
    doc["audit"] = {"seed": 7, "porosity_samples": 50,
                    "budget": {"strata": 4, "per_stratum": 16}}
    cfg = parse_config(_raw(doc))
    assert cfg.audit.seed == 7
    assert cfg.audit.porosity_samples == 50
    assert cfg.audit.budget == SamplingBudget(4, 16)
    assert cfg.audit.dbound_budget == AuditSettings().dbound_budget


def test_with_seed_overrides_both_sides():
    cfg = parse_config(_raw(_demo_doc()))
    reseeded = cfg.with_seed(99)
    assert reseeded.build.seed == 99
    assert reseeded.audit.seed == 99
    assert reseeded.config_hash == cfg.config_hash
    assert cfg.build.seed == 0                 # original untouched
    assert cfg.with_seed(None) is cfg
    # the schema's seed range, [0, 2^64 - 1]
    assert cfg.with_seed(2**64 - 1).audit.seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError,
                           match=r"seed must be an integer in \["):
            cfg.with_seed(seed)


@pytest.mark.parametrize("key, constant", [
    ("c_ledger", LEDGER_C), ("c_dbound", DBOUND_C),
    ("porosity_tol", WITNESS_TOL)])
def test_verdict_bounds_are_frozen(key, constant):
    # the key may be absent or the code's constant, nothing else
    schema = CONFIG_SCHEMA["properties"]["audit"]["properties"][key]
    assert schema == {"const": constant}
    doc = _demo_doc()
    assert doc["audit"][key] == constant
    parse_config(_raw(doc))
    doc["audit"][key] = 2.0 * constant
    with pytest.raises(ConfigError, match=f"at /audit/{key}:"):
        parse_config(_raw(doc))


def test_workers_knob():
    # audits run serially: the key may be absent or 1, nothing else
    doc = _demo_doc()
    assert doc["workers"] == 1
    parse_config(_raw(doc))
    del doc["workers"]
    parse_config(_raw(doc))
    doc["workers"] = 4
    with pytest.raises(ConfigError, match="at /workers"):
        parse_config(_raw(doc))
