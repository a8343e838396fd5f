"""Run report schema and canonical rendering tests."""

import json

import jsonschema
import pytest

from augbin import (
    SCHEMA_VERSION,
    make_report,
    read_report,
    render_report,
    validate_report,
    write_report,
)
from augbin.report import REPORT_SCHEMA_STRICT


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
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)


def test_missing_field_rejected():
    report = _sample()
    del report["losses"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)


def test_wrong_types_rejected():
    report = _sample()
    report["losses"] = ["fast"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)
    report = _sample()
    report["verdicts"] = {"isolation": "yes"}
    with pytest.raises(jsonschema.ValidationError):
        validate_report(report)
    report = _sample()
    report["schema_version"] = "999"
    with pytest.raises(jsonschema.ValidationError):
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
    report = _sample()
    report[field] = value
    if second_fault:
        del report["timings"]  # so the choice between errors matters
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(instance=report, schema=REPORT_SCHEMA_STRICT)
    with pytest.raises(jsonschema.ValidationError) as raised:
        validate_report(report)
    assert str(raised.value) == str(expected.value)
    assert list(raised.value.absolute_path) == list(expected.value.absolute_path)


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
    with pytest.raises(jsonschema.ValidationError):
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
