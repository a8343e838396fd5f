"""Run reports: one JSON document per command run, with a fixed schema.

Rendering is canonical (sorted keys, two-space indent, trailing newline), so
two runs that compute identical values produce byte-identical files.  Wall
clock measurements go into ``timings`` only when a caller explicitly
provides them; verification reports leave it empty to stay reproducible.
"""

from __future__ import annotations

import json

import jsonschema
from jsonschema.exceptions import best_match

SCHEMA_VERSION = "1"

_BASE_PROPERTIES = {
    "schema_version": {"const": SCHEMA_VERSION},
    "config": {"type": "object"},
    "seeds": {"type": "object", "additionalProperties": {"type": "integer"}},
    "losses": {"type": "array", "items": {"type": "number"}},
    "divergence": {"type": "array", "items": {"type": "number"}},
    "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
    "timings": {"type": "object", "additionalProperties": {"type": "number"}},
    "verdicts": {"type": "object", "additionalProperties": {"type": "boolean"}},
}

_REQUIRED = sorted(_BASE_PROPERTIES)

REPORT_SCHEMA_STRICT = {
    "type": "object",
    "properties": _BASE_PROPERTIES,
    "required": _REQUIRED,
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": _BASE_PROPERTIES,
    "required": _REQUIRED,
    "additionalProperties": True,
}


# Built once: jsonschema.validate re-checks the schema against its metaschema
# on every call, which costs ten times the validation itself.  Both schemas
# are constants, so the tests check them instead.
_Validator = jsonschema.validators.validator_for(REPORT_SCHEMA)
_STRICT_VALIDATOR = _Validator(REPORT_SCHEMA_STRICT)
_LENIENT_VALIDATOR = _Validator(REPORT_SCHEMA)


def make_report(
    config: dict,
    seeds: dict,
    losses=(),
    divergence=(),
    counters=None,
    timings=None,
    verdicts=None,
) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(config),
        "seeds": {key: int(value) for key, value in dict(seeds).items()},
        "losses": [float(value) for value in losses],
        "divergence": [float(value) for value in divergence],
        "counters": {key: int(value) for key, value in dict(counters or {}).items()},
        "timings": {key: float(value) for key, value in dict(timings or {}).items()},
        "verdicts": {key: bool(value) for key, value in dict(verdicts or {}).items()},
    }
    validate_report(report)
    return report


def validate_report(report: dict, strict: bool = True) -> None:
    """Raise jsonschema.ValidationError when the report violates the schema.

    Strict mode additionally rejects fields outside the documented set.  The
    error raised is the one ``jsonschema.validate`` would raise.
    """
    validator = _STRICT_VALIDATOR if strict else _LENIENT_VALIDATOR
    error = best_match(validator.iter_errors(report))
    if error is not None:
        raise error


def render_report(report: dict) -> str:
    """Canonical text form; identical reports render to identical bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(render_report(report))


def read_report(path, strict: bool = True) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    validate_report(report, strict=strict)
    return report
