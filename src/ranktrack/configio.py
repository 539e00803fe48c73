"""Flat key = value config files: parse, format, digest, and the one codec
between them and flat dataclasses.

The format is one `key = value` pair per line; blank lines and text after
`#` are ignored. ``to_kv`` writes a dataclass's fields in field order:
floats with ``repr``, tuples as comma-joined ``repr``s, other values with
``str``, and fields that are None not at all. ``from_kv`` reads them back:
it rejects unknown keys, parses each present field as the type of its
default (a None default reads a tuple of floats), names the field in every
error, and ends with the class's ``validate()``. Each ``validate()`` starts
with ``check_finite``, so a NaN or infinite float never gets past the range
checks, which NaN would pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


class ConfigError(ValueError):
    """A config file failed parsing or schema validation."""


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_kv(kv: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def to_kv(obj) -> dict[str, str]:
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, tuple):
            out[f.name] = ",".join(repr(x) for x in v)
        elif v is not None:
            out[f.name] = repr(v) if isinstance(v, float) else str(v)
    return out


def _parse(raw: str, default):
    if default is None:
        return tuple(float(x) for x in raw.split(","))
    if isinstance(default, bool):
        return _BOOLS[raw.lower()]
    return type(default)(raw)


def from_kv(cls, kv: dict[str, str]):
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(kv) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    args = {}
    for key, raw in kv.items():
        try:
            args[key] = _parse(raw, defaults[key])
        except (KeyError, ValueError):
            raise ConfigError(f"field {key!r}: cannot parse {raw!r}") from None
    obj = cls(**args)
    obj.validate()
    return obj


def check_finite(obj) -> None:
    """Raise a ConfigError naming the first float field of the dataclass
    ``obj``, or float in a tuple field, that is NaN or infinite."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if any(isinstance(x, float) and not math.isfinite(x)
               for x in (v if isinstance(v, tuple) else (v,))):
            raise ConfigError(f"field {f.name!r} must be finite, got {v!r}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
