"""Run-configuration loading, validation, and canonical hashing.

The run config is a single JSON document.  ``parse_config`` walks its top
level, ``build``, ``audit`` and budget sections once and reports every
violation at once, each naming its pointer in one form
(``/build/L must be a finite number, got inf``, ``/extra is not a config
key``, ``/build/n is required``), so nothing silently defaults.  A key
that sets a field of ``BuildConfig``, ``AuditSettings`` or
``SamplingBudget`` converts through ``errors.conform`` by the JSON schema
in that field's metadata (``errors.setting``): the one statement of its
bounds, which the library constructors and the family header read too, so
this module states no bound.  Cross-field constraints are the dataclasses'
own.  The verdict bounds are not settings: the ``audit`` keys
``c_ledger``, ``c_dbound`` and ``porosity_tol`` are accepted only at the
code's constants.  The canonical hash is the sha256 of the raw file bytes;
it is stamped into every artifact a run produces and lets downstream tools
refuse to merge results from different configurations.
"""
from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .bounds import DBOUND_C, LEDGER_C, WITNESS_TOL
from .construction import BuildConfig
from .errors import ConfigError, conform, is_number
from .sampling import SamplingBudget
from .verification import AuditSettings

CONFIG_FORMAT_VERSION = 1


# each section's required keys and its keys held at one value, True not
# being 1 but 1.0 being 1.  A stage that misses its target fails the
# build, the verdict bounds are frozen and audits run serially; their keys
# stay for existing config files.
_TOP = (("format_version", "build"),
        {"format_version": CONFIG_FORMAT_VERSION, "workers": 1})
_SECTIONS = {
    BuildConfig: (("n", "s", "r", "L", "E", "epsilons", "stop_fractions",
                   "depth", "seed"), {"accept_partial": False}),
    AuditSettings: ((), {"c_ledger": LEDGER_C, "c_dbound": DBOUND_C,
                         "porosity_tol": WITNESS_TOL}),
    SamplingBudget: (("strata", "per_stratum"), {}),
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


def _key_violations(section: dict, at: str, keys, required: tuple,
                    frozen: dict) -> list:
    """The violations of the config object at pointer ``at`` that its keys
    show: a key outside ``keys`` and ``frozen``, a ``required`` key
    absent, and a ``frozen`` key at another value."""
    return [f"{at}/{key} is required" for key in required
            if key not in section] + [
        f"{at}/{key} is not a config key" for key in section
        if key not in keys and key not in frozen] + [
        f"{at}/{key} must be {want!r}, got {reprlib.repr(section[key])}"
        for key, want in frozen.items() if key in section
        and not (section[key] == want
                 and is_number(section[key]) == is_number(want))]


def _settings(cls, section, at: str, problems: list, **extra):
    """``cls`` from the config section at pointer ``at``: each present key
    converted by its field's schema and a budget read from its own
    section; absent keys keep the field defaults.  Each violation,
    a cross-field one included, is appended to ``problems``, and then
    None is returned."""
    if not isinstance(section, dict):
        problems.append(f"{at} must be an object, got "
                        f"{reprlib.repr(section)}")
        return None
    keys = {f.name: f for f in fields(cls)
            if "schema" in f.metadata or is_dataclass(f.default)}
    found = _key_violations(section, at, keys, *_SECTIONS[cls])
    values = {}
    for key in keys.keys() & section.keys():
        schema = keys[key].metadata.get("schema")
        try:
            values[key] = conform(f"{at}/{key}", section[key], schema) \
                if schema else _settings(type(keys[key].default),
                                         section[key], f"{at}/{key}", found)
        except ValueError as exc:
            found.append(str(exc))
    if not found:
        try:
            return cls(**values, **extra)
        except ValueError as exc:      # a cross-field constraint
            found.append(f"{at}/{exc}")
    problems += found
    return None


def parse_config(raw: bytes, path: str = "<memory>") -> LoadedConfig:
    """Validate raw config bytes and derive the typed settings."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    digest = config_hash_of(raw)
    problems = _key_violations(doc, "", {"build", "audit"}, *_TOP)
    build = _settings(BuildConfig, doc["build"], "/build", problems,
                      config_hash=digest) if "build" in doc else None
    audit = _settings(AuditSettings, doc.get("audit", {}), "/audit",
                      problems)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(sorted(problems)))
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
