"""Run report schema and canonical rendering tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbin
from augbin import (
    SCHEMA_VERSION,
    ParseError,
    make_report,
    read_report,
    render_report,
    validate_report,
    write_report,
)

# The report schema as JSON Schema (Draft 2020-12), the oracle that
# validate_report must agree with.
_PROPERTIES = {
    "schema_version": {"const": SCHEMA_VERSION},
    "config": {"type": "object"},
    "seeds": {"type": "object", "additionalProperties": {"type": "integer"}},
    "losses": {"type": "array", "items": {"type": "number"}},
    "divergence": {"type": "array", "items": {"type": "number"}},
    "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
    "timings": {"type": "object", "additionalProperties": {"type": "number"}},
    "verdicts": {"type": "object", "additionalProperties": {"type": "boolean"}},
}

REPORT_SCHEMA_STRICT = {
    "type": "object",
    "properties": _PROPERTIES,
    "required": sorted(_PROPERTIES),
    "additionalProperties": False,
}


def _sample():
    return make_report(
        config={"command": "train", "steps": 3},
        seeds={"network": 7},
        losses=[1.5, 1.25, 1.0],
        divergence=[0.0, 1e-15],
        counters={"encoding_param_updates": 12},
        timings={},
        verdicts={"isolation": True},
    )


def test_make_report_has_all_documented_fields():
    report = _sample()
    assert sorted(report) == [
        "config",
        "counters",
        "divergence",
        "losses",
        "schema_version",
        "seeds",
        "timings",
        "verdicts",
    ]
    assert report["schema_version"] == SCHEMA_VERSION


def test_strict_mode_rejects_unknown_fields():
    report = _sample()
    validate_report(report)
    report["extra"] = 1
    with pytest.raises(ParseError):
        validate_report(report)


def test_missing_field_rejected():
    report = _sample()
    del report["losses"]
    with pytest.raises(ParseError):
        validate_report(report)


def test_wrong_types_rejected():
    report = _sample()
    report["losses"] = ["fast"]
    with pytest.raises(ParseError):
        validate_report(report)
    report = _sample()
    report["verdicts"] = {"isolation": "yes"}
    with pytest.raises(ParseError):
        validate_report(report)
    report = _sample()
    report["schema_version"] = "999"
    with pytest.raises(ParseError):
        validate_report(report)


def test_report_schema_is_valid_against_its_metaschema():
    jsonschema.validators.validator_for(REPORT_SCHEMA_STRICT).check_schema(REPORT_SCHEMA_STRICT)


@pytest.mark.parametrize(
    "field, value",
    [
        ("extra", 1),
        ("losses", ["fast"]),
        ("verdicts", {"isolation": "yes"}),
        ("schema_version", "999"),
        ("seeds", {"network": 1.5}),
        ("counters", None),
    ],
)
@pytest.mark.parametrize("second_fault", [True, False])
def test_validate_report_raises_the_error_jsonschema_validate_picks(field, value, second_fault):
    """Both reject the report and name the same field; the messages differ."""
    report = _sample()
    report[field] = value
    if second_fault:
        del report["timings"]  # so the choice between errors matters
    named = "timings" if second_fault else field
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(instance=report, schema=REPORT_SCHEMA_STRICT)
    assert repr(named) in expected.value.message or named in expected.value.absolute_path
    with pytest.raises(ParseError, match=repr(named)):
        validate_report(report)


_WHOLE_FLOATS = st.integers(min_value=-(10**6), max_value=10**6).map(float)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**66),
    st.integers(min_value=-(2**66), max_value=-(2**63) + 2),
    _FLOATS,
    _WHOLE_FLOATS,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.0, -0.0, 1e300]),
    st.text(max_size=4),
    st.sampled_from([SCHEMA_VERSION, "2"]),
)
_KEYS = st.text(max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=8,
)
_INTEGERS = st.integers() | _WHOLE_FLOATS
_NUMBERS = _INTEGERS | _FLOATS
_FITTING = {  # values the schema accepts for each field
    "schema_version": st.just(SCHEMA_VERSION),
    "config": st.dictionaries(_KEYS, _JSON, max_size=3),
    "seeds": st.dictionaries(_KEYS, _INTEGERS, max_size=3),
    "losses": st.lists(_NUMBERS, max_size=4),
    "divergence": st.lists(_NUMBERS, max_size=4),
    "counters": st.dictionaries(_KEYS, _INTEGERS, max_size=3),
    "timings": st.dictionaries(_KEYS, _NUMBERS, max_size=3),
    "verdicts": st.dictionaries(_KEYS, st.booleans(), max_size=3),
}
_NAMES = st.sampled_from(sorted(_FITTING))


def _new_value(name):
    """Any JSON value, a flat array or object of scalars, or a fitting value."""
    flat = st.lists(_SCALARS, max_size=4) | st.dictionaries(_KEYS, _SCALARS, max_size=4)
    return st.one_of(_JSON, flat, _FITTING.get(name, st.nothing()))


@st.composite
def _changed_reports(draw):
    report = _sample()
    change = draw(st.sampled_from(["replace one", "replace two", "delete", "add", "top level"]))
    if change == "top level":
        return draw(_JSON.filter(lambda value: not isinstance(value, dict)) | st.just([report]))
    if change == "delete":
        del report[draw(_NAMES)]
    elif change == "add":
        name = draw(_KEYS | _NAMES)
        report[name] = draw(_new_value(name))
    else:
        for name in draw(st.lists(_NAMES, min_size=1, max_size=1 if change == "replace one" else 2)):
            report[name] = draw(_new_value(name))
    return report


# jsonschema.validate less its metaschema check of the schema on every call,
# which test_report_schema_is_valid_against_its_metaschema makes once.
_ORACLE = jsonschema.validators.validator_for(REPORT_SCHEMA_STRICT)(REPORT_SCHEMA_STRICT)


@settings(max_examples=1000, deadline=None)
@given(_changed_reports())
def test_validate_report_agrees_with_the_schema(report):
    try:
        _ORACLE.validate(report)
    except jsonschema.ValidationError:
        with pytest.raises(ParseError):
            validate_report(report)
    else:
        validate_report(report)


def test_import_leaves_jsonschema_out():
    source = str(Path(augbin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, augbin; print('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_render_is_canonical_under_key_order():
    a = make_report(config={"x": 1, "y": 2}, seeds={"n": 1, "m": 2})
    b = make_report(config={"y": 2, "x": 1}, seeds={"m": 2, "n": 1})
    assert render_report(a) == render_report(b)
    assert render_report(a).endswith("\n")


def test_render_parses_back_identically():
    report = _sample()
    assert json.loads(render_report(report)) == report


def test_write_and_read_roundtrip(tmp_path):
    report = _sample()
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report
    # a second write produces identical bytes
    twin = tmp_path / "again.json"
    write_report(report, twin)
    assert path.read_bytes() == twin.read_bytes()


def test_read_report_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    with pytest.raises(ParseError):
        read_report(path)


def test_make_report_coerces_numeric_types():
    import numpy as np

    report = make_report(
        config={},
        seeds={"network": np.int64(3)},
        losses=np.array([1.0, 0.5]),
        counters={"updates": np.int64(4)},
    )
    assert isinstance(report["seeds"]["network"], int)
    assert isinstance(report["losses"][0], float)
    assert isinstance(report["counters"]["updates"], int)
