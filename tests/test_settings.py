"""Each setting's bounds are stated once, as the JSON schema in the metadata
of its dataclass field: the config file, the library constructors and the
family header must refuse the same values, each naming the field."""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from porous import (AuditSettings, BuildConfig, ConfigError, HoleFamily,
                    ParseError, build_family, deserialize_family,
                    parse_config, serialize_family)
from porous.sampling import SEED_MAX, SamplingBudget

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config" \
    / "demo.json"
# the build settings that a family file's header repeats
HEADER_KEYS = ("n", "s", "r", "L", "E", "epsilons", "seed")
# each settings class with the config section that fills it
SECTIONS = ((BuildConfig, ("build",)), (AuditSettings, ("audit",)),
            (SamplingBudget, ("build", "budget")))


def _refused(schema: dict) -> list:
    """Values outside ``schema``: at or past each bound's edge, NaN and
    +-inf, True, and an integer too large for a float where the schema
    bounds it above; for an integer also a whole float and a fraction.
    For an array, the values of one item."""
    kind = schema["type"]
    if kind == "array":
        return _refused(schema["items"])
    out = [math.nan, math.inf, -math.inf, True]
    if kind == "integer":
        low, high = schema["minimum"], schema.get("maximum")
        out += [low - 1, float(low), low + 0.5]
        # with no maximum, 10**400 lies in range
        out += [] if high is None else [high + 1, 10**400]
    else:
        low = schema["exclusiveMinimum"]
        out += [low, low - 0.5, 10**400]
        if "exclusiveMaximum" in schema:
            out += [schema["exclusiveMaximum"]]
    return out


def _cases():
    for cls, section in SECTIONS:
        for f in dataclasses.fields(cls):
            if "schema" in f.metadata:
                for value in _refused(f.metadata["schema"]):
                    yield pytest.param(cls, section, f.name, value,
                                       id=f"{cls.__name__}.{f.name}="
                                          f"{value!r}"[:48])


def _with(default, value):
    """``value`` in place of a setting's default; in place of the last
    item of an array."""
    return [*default[:-1], value] if isinstance(default, tuple) else value


def _hand_family(**header) -> HoleFamily:
    """One stage-1 hole on the demo's settings, the header fields given
    overriding them."""
    settings = {**dict(n=3, s=0.25, r=1.0 / 64.0, L=math.sqrt(10.0), E=1.5,
                       epsilons=(0.0025,), seed=0, config_hash=""), **header}
    n = settings["n"]
    return HoleFamily(**settings, ks=np.ones(1, dtype=np.int64),
                      levels=np.ones(1, dtype=np.int64),
                      base_centers=np.full((1, n), 0.5), ts=np.array([0.01]))


@pytest.mark.parametrize("cls, section, key, value", list(_cases()))
def test_config_constructor_and_header_refuse_alike(cls, section, key,
                                                    value):
    default = getattr(cls(), key)
    doc = json.loads(DEMO_CONFIG.read_text())
    part = doc
    for name in section:
        part = part[name]
    part[key] = list(_with(default, value)) if isinstance(default, tuple) \
        else value
    pointer = "/" + "/".join([*section, key])
    # the converter names the pointer, an array's without the item
    with pytest.raises(ConfigError, match=f"^invalid config: {pointer} "
                       "must be "):
        parse_config(json.dumps(doc).encode())
    with pytest.raises(ValueError, match=f"^{key} must be "):
        cls(**{key: _with(default, value)})
    if cls is BuildConfig and key in HEADER_KEYS:
        header, rest = serialize_family(_hand_family()).split("\n", 1)
        edited = json.loads(header)
        edited[key] = _with(tuple(edited[key]), value) \
            if isinstance(edited[key], list) else value
        with pytest.raises(ParseError, match=f"^line 1: {key} must be "):
            deserialize_family(json.dumps(edited) + "\n" + rest)


def _edges():
    """Each integer setting's bounds, which the setting admits."""
    for cls, section in SECTIONS:
        for f in dataclasses.fields(cls):
            schema = f.metadata.get("schema", {})
            for edge in ("minimum", "maximum"):
                if edge in schema:
                    yield pytest.param(cls, section, f.name, schema[edge],
                                       id=f"{cls.__name__}.{f.name}={edge}")


@pytest.mark.parametrize("cls, section, key, value", list(_edges()))
def test_config_and_constructor_admit_an_integer_bound_alike(cls, section,
                                                             key, value):
    doc = json.loads(DEMO_CONFIG.read_text())
    part = doc
    for name in section:
        part = part[name]
    part[key] = value
    loaded = parse_config(json.dumps(doc).encode())
    settings = loaded.audit if section == ("audit",) else loaded.build
    if cls is SamplingBudget:
        settings = settings.budget
    assert getattr(settings, key) == value
    assert getattr(cls(**{key: value}), key) == value


@pytest.mark.parametrize("settings", [
    dict(L=math.nan), dict(L=math.inf), dict(E=math.nan), dict(E=math.inf),
    dict(epsilons=(0.0025, math.nan)), dict(seed=-1), dict(seed=2**64),
    dict(n=64), dict(n=3.5), dict(depth=2.0), dict(pool_size=0),
    dict(max_levels=0)], ids=repr)
def test_build_settings_once_accepted_in_process_are_refused(settings):
    with pytest.raises(ValueError, match=f"^{next(iter(settings))} must be"):
        BuildConfig(**settings)


@pytest.mark.parametrize("make", [
    lambda: AuditSettings(floor_samples=0), lambda: SamplingBudget(1.5, 2),
    lambda: SamplingBudget(True, 2)])
def test_audit_settings_and_budgets_refuse_alike(make):
    with pytest.raises(ValueError, match="^(floor_samples|strata) must be"):
        make()


@pytest.mark.parametrize("header", [
    dict(seed=-1), dict(seed=2**64), dict(L=math.inf), dict(E=math.nan),
    dict(epsilons=(math.nan,))], ids=repr)
def test_a_family_refuses_what_its_file_would(header):
    with pytest.raises(ValueError, match=f"^{next(iter(header))} must be"):
        _hand_family(**header)


@pytest.mark.parametrize("key, value", [("L", 1.5), ("E", 0.5), ("s", 0.9),
                                        ("r", 0.5)])
def test_a_header_outside_the_build_settings_is_refused(key, value):
    header, rest = serialize_family(_hand_family()).split("\n", 1)
    edited = {**json.loads(header), key: value}
    with pytest.raises(ParseError, match=f"^line 1: {key} must be a number "
                       r"in \("):
        deserialize_family(json.dumps(edited) + "\n" + rest)


@pytest.mark.parametrize("seed", [0, SEED_MAX])
def test_a_family_built_at_a_seed_extreme_reads_back_to_its_bytes(seed):
    family, _ = build_family(BuildConfig(seed=seed))
    text = serialize_family(family)
    assert json.loads(text.split("\n", 1)[0])["seed"] == seed
    assert serialize_family(deserialize_family(text)) == text


def test_a_family_of_the_largest_base_dimension_reads_back_to_its_bytes():
    text = serialize_family(_hand_family(n=63))
    assert serialize_family(deserialize_family(text)) == text
