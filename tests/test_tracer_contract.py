"""The benchmark tracer's patch table names only attributes that exist.

``perfbench/spans.py`` patches each ``(owner, attr)`` of ``PATCH_TABLE`` by
reading ``owner.__dict__[attr]``.  A refactor that drops or moves one of
those names would otherwise surface only as a ``KeyError`` in a traced
benchmark run.
"""

from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patch_table():
    # Compiled from the source text, so nothing is written beside it.
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["PATCH_TABLE"]


def test_every_patched_name_is_in_its_owner_dict():
    table = _patch_table()
    assert table
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in table if attr not in vars(owner)]
    assert missing == []
