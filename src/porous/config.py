"""Run-configuration loading, validation, and canonical hashing.

The run config is a single JSON document.  Validation is schema-driven and
exhaustive: every violation in the file is reported at once, and unknown
keys are rejected so nothing silently defaults.  Each section's schema
is composed from the dataclass it fills: a settable field states its
bounds once, as the JSON schema in its metadata (``errors.setting``), so
this module writes no bound, and each value converts through
``errors.conform`` by the same schema that the library constructors and
the family header check.  The verdict bounds are not settings: the ``audit`` keys ``c_ledger``, ``c_dbound`` and
``porosity_tol`` are accepted only at the code's constants, and the
settable audit values are the fields of ``AuditSettings``.  The canonical
hash is the sha256 of the raw file bytes; it is stamped into every
artifact a run produces and lets downstream tools refuse to merge results
from different configurations.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from operator import ge, gt, le, lt
from pathlib import Path
from typing import Optional, Union

from .construction import BuildConfig
from .errors import ConfigError, conform, is_number
from .sampling import SamplingBudget
from .verification import DBOUND_C, LEDGER_C, WITNESS_TOL, AuditSettings

CONFIG_FORMAT_VERSION = 1


def _section(cls, required: tuple = (), **consts) -> dict:
    """The config section that sets the fields of ``cls``: a key per field
    with a schema, that schema, a budget section per budget field, the
    ``required`` keys, and keys held at ``consts``."""
    return {"type": "object", "additionalProperties": False,
            **({"required": list(required)} if required else {}),
            "properties": {**{
                f.name: f.metadata["schema"] if "schema" in f.metadata
                else _section(SamplingBudget, ("strata", "per_stratum"))
                for f in fields(cls) if "schema" in f.metadata
                or isinstance(f.default, SamplingBudget)},
                **{key: {"const": value} for key, value in consts.items()}}}


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["format_version", "build"],
    "properties": {
        "format_version": {"const": CONFIG_FORMAT_VERSION},
        # a stage that misses its target fails the build, and the verdict
        # bounds are frozen; audits run serially.  Their keys stay for
        # existing config files.
        "build": _section(BuildConfig, (
            "n", "s", "r", "L", "E", "epsilons", "stop_fractions", "depth",
            "seed"), accept_partial=False),
        "audit": _section(AuditSettings, c_ledger=LEDGER_C, c_dbound=DBOUND_C,
                          porosity_tol=WITNESS_TOL),
        "workers": {"const": 1},
    },
}


@dataclass(frozen=True)
class LoadedConfig:
    """A validated config document plus everything derived from it."""

    path: str
    raw: bytes
    doc: dict
    config_hash: str
    build: BuildConfig
    audit: AuditSettings

    def with_seed(self, seed: Optional[int]) -> "LoadedConfig":
        """Copy with the seed overridden in both build and audit settings;
        a seed that is not an integer in [0, SEED_MAX] raises."""
        if seed is None:
            return self
        try:
            return replace(self, build=replace(self.build, seed=seed),
                           audit=replace(self.audit, seed=seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def config_hash_of(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# Draft 2020-12's types: a bool is no number, a whole float is an integer
_TYPES = {None: lambda v: True, "object": lambda v: isinstance(v, dict),
          "array": lambda v: isinstance(v, list), "number": is_number,
          "integer": lambda v: is_number(v)
          and (isinstance(v, int) or v.is_integer())}


def _bound(fails, words: str):
    return "number", lambda w, v, s, at: (
        [(at, f"{v!r} is {words} of {w!r}")] if fails(v, w) else [])


# CONFIG_SCHEMA's keywords: the type each checks (None: any), and (its value
# w, instance v, schema s, v's path) -> [(path, jsonschema's message)]
_KEYWORDS = {
    "$schema": (None, lambda *_: []),
    "type": (None, lambda w, v, s, at: (
        [] if _TYPES[w](v) else [(at, f"{v!r} is not of type {w!r}")])),
    "minimum": _bound(lt, "less than the minimum"),
    "maximum": _bound(gt, "greater than the maximum"),
    "exclusiveMinimum": _bound(le, "less than or equal to the minimum"),
    "exclusiveMaximum": _bound(ge, "greater than or equal to the maximum"),
    "const": (None, lambda w, v, s, at: (  # True is not 1, but 1.0 is
        [] if v == w and is_number(v) == is_number(w)
        else [(at, f"{w!r} was expected")])),
    "required": ("object", lambda w, v, s, at: (
        [(at, f"{k!r} is a required property") for k in w if k not in v])),
    "additionalProperties": ("object", lambda w, v, s, at: [
        (at, "Additional properties are not allowed (%s %s unexpected)" % (
            ", ".join(map(repr, x)), "was" if len(x) == 1 else "were"))]
        if (x := sorted(v.keys() - s["properties"].keys())) else []),
    "properties": ("object", lambda w, v, s, at: [
        e for k in v.keys() & w for e in _violations(w[k], v[k], at + (k,))]),
    "items": ("array", lambda w, v, s, at: [
        e for i, x in enumerate(v)
        for e in _violations(w, x, at + (str(i),))]),
    "minItems": ("array", lambda w, v, s, at: [] if len(v) >= w else [
        (at, f"{v!r} {'should be non-empty' if w == 1 else 'is too short'}")]),
}


def _violations(schema: dict, v, at: tuple) -> list:
    return [e for key, w in schema.items() if _TYPES[_KEYWORDS[key][0]](v)
            for e in _KEYWORDS[key][1](w, v, schema, at)]


def validate_config_doc(doc: dict) -> None:
    """Schema-check a parsed config; raises listing every violation."""
    if errors := sorted(_violations(CONFIG_SCHEMA, doc, ())):
        raise ConfigError("invalid config: " + "; ".join(
            f"at /{'/'.join(at)}: {message}" for at, message in errors))


def _settings(cls, section: dict, at: str, **extra):
    """``cls`` from the config section at pointer ``at``: each present key
    converted by its field's schema, an error naming the key's pointer,
    and a budget built from its own section; absent keys keep the field
    defaults."""
    return cls(**{f.name: conform(f"{at}/{f.name}", section[f.name],
                                  f.metadata["schema"])
                  if "schema" in f.metadata else
                  _settings(SamplingBudget, section[f.name], f"{at}/{f.name}")
                  for f in fields(cls) if f.name in section}, **extra)


def parse_config(raw: bytes, path: str = "<memory>") -> LoadedConfig:
    """Validate raw config bytes and derive the typed settings."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    validate_config_doc(doc)
    digest = config_hash_of(raw)
    try:
        build = _settings(BuildConfig, doc["build"], "/build",
                          config_hash=digest)
        audit = _settings(AuditSettings, doc.get("audit", {}), "/audit")
    except ValueError as exc:
        # non-finite reals, and cross-field constraints the schema cannot
        # express
        raise ConfigError(f"invalid config: {exc}") from exc
    return LoadedConfig(path=path, raw=raw, doc=doc, config_hash=digest,
                        build=build, audit=audit)


def load_config(path: Union[str, Path]) -> LoadedConfig:
    """Read and validate a config file; the hash covers the exact bytes."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(raw, path=str(p))
