import copy
import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from porous import (AuditSettings, BuildConfig, ConfigError, load_config,
                    parse_config)
from porous.bounds import DBOUND_C, LEDGER_C, WITNESS_TOL
from porous.config import config_hash_of
from porous.errors import conform
from porous.sampling import SamplingBudget

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
    assert "/build/n must be " in msg
    assert "/build/s must be " in msg
    assert "/build/seed must be " in msg


def test_range_and_finite_violations_are_named_together():
    # a bound and a non-finite real, and two non-finite reals, each named
    doc = _demo_doc()
    doc["build"]["n"] = 2
    doc["build"]["L"] = math.inf
    with pytest.raises(ConfigError, match=r"^invalid config: /build/L must "
                       r"be a finite number, got inf; /build/n must be an "
                       r"integer in \[3, 63\], got 2$"):
        parse_config(_raw(doc))
    doc["build"]["n"] = 3
    doc["build"]["s"] = math.nan
    with pytest.raises(ConfigError, match=r"^invalid config: /build/L must "
                       r"be a finite number, got inf; /build/s must be a "
                       r"finite number, got nan$"):
        parse_config(_raw(doc))


def test_unknown_keys_are_rejected():
    doc = _demo_doc()
    doc["extra"] = 1
    doc["build"]["typo_knob"] = 2
    with pytest.raises(ConfigError) as err:
        parse_config(_raw(doc))
    assert str(err.value) == ("invalid config: /build/typo_knob is not a "
                              "config key; /extra is not a config key")


def test_missing_required_section_points_at_root():
    # the section alone, not each key it requires
    with pytest.raises(ConfigError,
                       match="^invalid config: /build is required$"):
        parse_config(b'{"format_version": 1}')


def test_a_section_that_is_no_object_is_named():
    doc = _demo_doc()
    doc["build"]["budget"] = [32, 128]
    doc["audit"] = None
    with pytest.raises(ConfigError, match=r"^invalid config: /audit must be "
                       r"an object, got None; /build/budget must be an "
                       r"object, got \[32, 128\]$"):
        parse_config(_raw(doc))


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
    fields = {f.name: f for f in dataclasses.fields(BuildConfig)}
    assert fields["n"].metadata["schema"]["maximum"] == 63
    doc = _demo_doc()
    doc["build"]["n"] = 63
    assert parse_config(_raw(doc)).build.n == 63
    for n in (64, 10**400):
        doc["build"]["n"] = n
        with pytest.raises(ConfigError, match=r"^invalid config: /build/n "
                           r"must be an integer in \[3, 63\], got "):
            parse_config(_raw(doc))


def test_schema_violations_are_one_line():
    doc = _demo_doc()
    doc["build"]["n"] = 2
    doc["build"]["seed"] = -1
    with pytest.raises(ConfigError, match=r"^invalid config: /build/n must "
                       r"be an integer in \[3, 63\], got 2; /build/seed "
                       r"must be an integer in \[0, 18446744073709551615\], "
                       r"got -1$"):
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
    doc = _demo_doc()
    assert doc["audit"][key] == constant
    parse_config(_raw(doc))
    del doc["audit"][key]
    parse_config(_raw(doc))
    doc["audit"][key] = 2.0 * constant
    with pytest.raises(ConfigError, match=f"^invalid config: /audit/{key} "
                       f"must be {constant!r}, got {2.0 * constant!r}$"):
        parse_config(_raw(doc))


def test_workers_knob():
    # audits run serially: the key may be absent or 1, nothing else
    doc = _demo_doc()
    assert doc["workers"] == 1
    parse_config(_raw(doc))
    del doc["workers"]
    parse_config(_raw(doc))
    doc["workers"] = 4
    with pytest.raises(ConfigError,
                       match="^invalid config: /workers must be 1, got 4$"):
        parse_config(_raw(doc))


# ---------------------------------------------------------------------------
# the config errors against the jsonschema package
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


def _oracle_section(cls, required: tuple = (), **consts) -> dict:
    """The Draft 2020-12 schema of the config section that fills ``cls``,
    composed from its fields' metadata: a key per field with a schema,
    that schema, a budget section per budget field, the ``required``
    keys, and keys held at ``consts``."""
    return {"type": "object", "additionalProperties": False,
            **({"required": list(required)} if required else {}),
            "properties": {**{
                f.name: f.metadata["schema"] if "schema" in f.metadata
                else _oracle_section(SamplingBudget, ("strata", "per_stratum"))
                for f in dataclasses.fields(cls) if "schema" in f.metadata
                or dataclasses.is_dataclass(f.default)},
                **{key: {"const": value} for key, value in consts.items()}}}


# the schema of a config file, an oracle independent of parse_config
ORACLE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["format_version", "build"],
    "properties": {
        "format_version": {"const": 1},
        "build": _oracle_section(BuildConfig, (
            "n", "s", "r", "L", "E", "epsilons", "stop_fractions", "depth",
            "seed"), accept_partial=False),
        "audit": _oracle_section(AuditSettings, c_ledger=LEDGER_C,
                                 c_dbound=DBOUND_C, porosity_tol=WITNESS_TOL),
        "workers": {"const": 1},
    },
}


@pytest.fixture(scope="module")
def oracle():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(ORACLE_SCHEMA)


def _oracle_text(oracle, doc) -> str:
    """jsonschema's violations of doc, sorted, each with its path."""
    errors = sorted(oracle.iter_errors(doc), key=lambda e: (
        list(map(str, e.absolute_path)), e.message))
    return "; ".join(f"at /{'/'.join(map(str, e.absolute_path))}: "
                     f"{e.message}" for e in errors)


def _oracle_pointers(error) -> set:
    """The config pointers a jsonschema error names: each missing or
    unknown key's own, and else the error's path without an array item's
    index."""
    at = "".join(f"/{part}" for part in error.absolute_path
                 if isinstance(part, str))
    if error.validator == "required":
        return {f"{at}/{key}" for key in error.validator_value
                if key not in error.instance}
    if error.validator == "additionalProperties":
        return {f"{at}/{key}" for key in
                error.instance.keys() - error.schema["properties"].keys()}
    return {at}


def _conform_refusals(doc) -> set:
    """The pointer of each present value that ``conform`` refuses by its
    field's schema, in every section that is an object."""
    out = set()

    def walk(cls, section, at):
        if not isinstance(section, dict):
            return
        for f in dataclasses.fields(cls):
            if f.name in section and dataclasses.is_dataclass(f.default):
                walk(type(f.default), section[f.name], f"{at}/{f.name}")
            elif f.name in section and "schema" in f.metadata:
                try:
                    conform(f.name, section[f.name], f.metadata["schema"])
                except ValueError:
                    out.add(f"{at}/{f.name}")

    walk(BuildConfig, doc.get("build"), "/build")
    walk(AuditSettings, doc.get("audit", {}), "/audit")
    return out


def _made(cls, section: dict):
    """``cls`` from a config section's values passed as they are, a
    budget's section as a budget."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: SamplingBudget(**value) if isinstance(value, dict)
                  else value for key, value in section.items()
                  if key in names})


def _named(message: str) -> set:
    """The first word of each violation a config error lists."""
    return {part.split(" ", 1)[0] for part in
            message.removeprefix("invalid config: ").split("; ")}


def test_config_errors_match_jsonschema_and_conform_on_mutated_configs(
        oracle):
    # a config is accepted exactly when jsonschema accepts it, conform
    # converts every present value and the settings classes accept the
    # values; a refusal names every pointer that either names, and
    # nothing but a ConfigError is raised
    rng = random.Random(20121)
    seen, outcomes = set(), Counter()
    for case in range(PARITY_DOCS):
        doc = _mutate(rng, _demo_doc()) if case else _demo_doc()
        errors = list(oracle.iter_errors(doc))
        refusals = _conform_refusals(doc)
        want = set().union(*map(_oracle_pointers, errors)) | refusals
        made = None
        if not want:
            try:
                made = (_made(BuildConfig, doc["build"]),
                        _made(AuditSettings, doc.get("audit", {})))
            except ValueError as exc:
                made = exc
        try:
            cfg = parse_config(_raw(doc))
        except ConfigError as exc:
            assert want <= _named(str(exc)), (doc, str(exc))
            assert want or isinstance(made, ValueError), doc
            # a cross-field refusal is the constructor's, after the
            # section's pointer
            assert want or str(exc) == f"invalid config: /build/{made}"
            outcomes["refused" if errors else "conform-refused"
                     if refusals else "cross-field-refused"] += 1
        else:
            assert not want and isinstance(made, tuple), doc
            assert cfg.build == dataclasses.replace(
                made[0], config_hash=cfg.config_hash)
            assert cfg.audit == made[1]
            outcomes["accepted"] += 1
        seen |= {(e.validator, "/".join(map(str, e.absolute_path)))
                 for e in errors}
    # each outcome was met, every keyword that can fail has failed, and
    # unknown and missing keys were met in every object of the demo config
    assert min(outcomes.values()) > 0 and len(outcomes) == 4, outcomes
    assert {kind for kind, _ in seen} == _schema_keywords(ORACLE_SCHEMA) \
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
    want = f"invalid config: /{'/'.join([*section, key])} must be " \
        f"{part[key]!r}, got {value!r}"
    part[key] = value
    if passes:
        parse_config(_raw(doc))
        return
    with pytest.raises(ConfigError) as err:
        parse_config(_raw(doc))
    assert str(err.value) == want


@pytest.mark.parametrize("value, message", [
    (True, "True is not of type 'integer'"),
    (3.0, ""), (3.5, "3.5 is not of type 'integer'"),
    (10**400, f"{10**400!r} is greater than the maximum of 63"),
    (math.inf, "inf is greater than the maximum of 63; at /build/n: inf "
               "is not of type 'integer'"),
    (math.nan, "nan is not of type 'integer'")])
def test_schema_integer_type_is_draft_2020_12s(oracle, value, message):
    # jsonschema's integer type: a bool is no number, a whole float is an
    # integer.  errors.integer refuses each of these values, 3.0 too
    doc = _demo_doc()
    doc["build"]["n"] = value
    assert _oracle_text(oracle, doc) == (message and f"at /build/n: {message}")
    with pytest.raises(ConfigError, match=r"^invalid config: /build/n must "
                       r"be an integer in \[3, 63\], got "):
        parse_config(_raw(doc))
