import copy
import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from porous import (AuditSettings, BuildConfig, ConfigError, config,
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


def test_config_n_is_at_most_63():
    assert CONFIG_SCHEMA["properties"]["build"]["properties"]["n"][
        "maximum"] == 63
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


# ---------------------------------------------------------------------------
# the schema walker against the jsonschema package
# ---------------------------------------------------------------------------

# values a mutation writes: every JSON type, the bounds' edges, whole
# floats, integers too large for a float, the non-finite reals, the frozen
# constants, and numbers that equal a bool
PARITY_VALUES = (
    True, False, None, "", "3", [], [0.5], [True, None, -1], {}, {"n": 3},
    0, 1, 2, 3, 63, 64, -1, -0.5, 0.0, -0.0, 1.0, 2.0, 64.0, 4096.0, 2.5,
    0.25, 0.5, 0.03125, 1e-300, 10**400, -10**400, math.inf, -math.inf,
    math.nan, LEDGER_C, DBOUND_C, WITNESS_TOL, 2**64 - 1, 2**64)
PARITY_KEYS = ("extra", "c1_celing", "n", "budget", "0")
PARITY_DOCS = 2000


def _slots(node):
    """(container, key) of every dict entry and list item within node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


def _mutate(rng, doc):
    """One to four random edits of doc: set a value, delete an entry, add
    a key to an object or grow or empty an array, at any depth."""
    for _ in range(rng.randint(1, 4)):
        slots = list(_slots(doc))
        objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        arrays = [c[k] for c, k in slots if isinstance(c[k], list)]
        value = copy.deepcopy(rng.choice(PARITY_VALUES))
        edit = rng.randrange(4)
        if edit == 0 and slots:
            container, key = rng.choice(slots)
            container[key] = value
        elif edit == 1 and slots:
            container, key = rng.choice(slots)
            del container[key]
        elif edit == 2:
            rng.choice(objects)[rng.choice(PARITY_KEYS)] = value
        elif arrays and rng.random() < 0.7:
            rng.choice(arrays).append(value)
        elif arrays:
            rng.choice(arrays).clear()
    return doc


def _walker_text(doc) -> str:
    try:
        validate_config_doc(doc)
    except ConfigError as exc:
        return str(exc).removeprefix("invalid config: ")
    return ""


def test_schema_walker_matches_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    rng = random.Random(20121)
    seen = set()
    for case in range(PARITY_DOCS):
        doc = _mutate(rng, _demo_doc()) if case else _demo_doc()
        errors = sorted(validator.iter_errors(doc), key=lambda e: (
            list(map(str, e.absolute_path)), e.message))
        want = "; ".join(f"at /{'/'.join(map(str, e.absolute_path))}: "
                         f"{e.message}" for e in errors)
        assert _walker_text(doc) == want, doc
        seen |= {(e.validator, "/".join(map(str, e.absolute_path)))
                 for e in errors}
    # every keyword that can fail has failed, and unknown and missing keys
    # were met in every object of the demo config
    assert {kind for kind, _ in seen} == _schema_keywords(CONFIG_SCHEMA) \
        - {"$schema", "properties", "items"}
    objects = {"", "build", "build/budget", "audit", "audit/budget",
               "audit/dbound_budget"}
    assert objects <= {at for kind, at in seen
                       if kind == "additionalProperties"}
    assert objects - {"audit"} <= {at for kind, at in seen
                                   if kind == "required"}


def _subschemas(schema: dict):
    """schema and every subschema it holds."""
    yield schema
    for sub in [*schema.get("properties", {}).values(),
                *([schema["items"]] if "items" in schema else [])]:
        yield from _subschemas(sub)


def _schema_keywords(schema: dict) -> set:
    return set().union(*_subschemas(schema))


def test_schema_walker_reads_every_keyword_of_the_schema():
    keywords = _schema_keywords(CONFIG_SCHEMA)
    assert keywords <= set(config._KEYWORDS)
    # the collector sees a keyword the walker does not read
    assert "multipleOf" in _schema_keywords(
        {"properties": {"a": {"items": {"multipleOf": 2}}}})
    assert "multipleOf" not in config._KEYWORDS


def test_schema_walker_reads_each_keyword_in_the_form_used():
    # additionalProperties only as false beside properties, and only the
    # walker's types
    for schema in _subschemas(CONFIG_SCHEMA):
        assert schema.get("additionalProperties", False) is False
        assert "properties" in schema or "additionalProperties" not in schema
        assert schema.get("type", "object") in config._TYPES


@pytest.mark.parametrize("section, key, value, passes", [
    ((), "workers", 1.0, True), ((), "workers", True, False),
    ((), "workers", "1", False), ((), "workers", [1], False),
    (("build",), "accept_partial", 0, False),
    (("build",), "accept_partial", 0.0, False),
    (("build",), "accept_partial", None, False)])
def test_schema_const_tells_a_bool_from_a_number(section, key, value, passes):
    # True is not 1 and 0 is not False, but 1.0 is 1
    doc = _demo_doc()
    part = doc
    for name in section:
        part = part[name]
    want = f"at /{'/'.join([*section, key])}: {part[key]!r} was expected"
    part[key] = value
    assert _walker_text(doc) == ("" if passes else want)


@pytest.mark.parametrize("value, message", [
    (True, "True is not of type 'integer'"),
    (3.0, ""), (3.5, "3.5 is not of type 'integer'"),
    (10**400, f"{10**400!r} is greater than the maximum of 63"),
    (math.inf, "inf is greater than the maximum of 63; at /build/n: inf "
               "is not of type 'integer'"),
    (math.nan, "nan is not of type 'integer'")])
def test_schema_integer_type_is_draft_2020_12s(value, message):
    # a bool is no number, a whole float is an integer (errors.integer
    # refuses it after the schema check)
    doc = _demo_doc()
    doc["build"]["n"] = value
    assert _walker_text(doc) == (message and f"at /build/n: {message}")
