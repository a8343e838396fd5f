"""Run reports: one JSON document per command run, with a fixed schema.

Rendering is canonical (sorted keys, two-space indent, trailing newline), so
two runs that compute identical values produce byte-identical files.  Wall
clock measurements go into ``timings`` only when a caller explicitly
provides them; verification reports leave it empty to stay reproducible.
The schema is flat, so plain code checks it; no schema library is needed.
"""

from __future__ import annotations

import json

from .errors import ParseError

SCHEMA_VERSION = "1"

# Every field after schema_version: its container and the JSON type of the
# values in it.
_FIELDS = {
    "config": ("object", "any"),
    "seeds": ("object", "integer"),
    "losses": ("array", "number"),
    "divergence": ("array", "number"),
    "counters": ("object", "integer"),
    "timings": ("object", "number"),
    "verdicts": ("object", "boolean"),
}


def _is_a(value, json_type: str) -> bool:
    """JSON Schema's types: a bool is neither a number nor an integer, and a
    whole-valued float such as 2.0 is an integer."""
    if json_type in ("any", "boolean"):
        return json_type == "any" or isinstance(value, bool)
    if isinstance(value, float) and json_type == "integer":
        return value.is_integer()
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def validate_report(report: dict) -> None:
    """Raise ParseError naming the first field that violates the schema.

    Every field must be present and no other field is allowed.
    """
    if not isinstance(report, dict):
        raise ParseError("report must be a JSON object")
    for name in ("schema_version", *_FIELDS, *report):
        if name not in report:
            raise ParseError(f"report is missing field {name!r}")
        if name != "schema_version" and name not in _FIELDS:
            raise ParseError(f"report has unknown field {name!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ParseError(f"report field 'schema_version' must be {SCHEMA_VERSION!r}")
    for name, (container, json_type) in _FIELDS.items():
        value = report[name]
        items = value.values() if isinstance(value, dict) else value
        fits = isinstance(value, dict if container == "object" else list)
        if not fits or not all(_is_a(item, json_type) for item in items):
            raise ParseError(f"report field {name!r} must be an {container} of {json_type} values")


def render_report(report: dict) -> str:
    """Canonical text form; identical reports render to identical bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(render_report(report))


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    validate_report(report)
    return report
