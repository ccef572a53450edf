"""The one field rule every record loader reads by (repro.utils.fields)."""

import dataclasses
from typing import Optional, Tuple

import pytest

from repro.utils.fields import (
    BOOL,
    INT,
    NAME,
    NUMBER,
    STR,
    Choice,
    Field,
    Int,
    Kind,
    ListOf,
    Number,
    Record,
    check_fields,
    declare,
    read_fields,
    retired,
    table_of,
)


class ProbeError(ValueError):
    """The loader's own error type."""


@dataclasses.dataclass
class Point:
    x: int = declare(Int(least=0))
    label: Optional[str] = declare(STR, None)
    tags: Tuple[str, ...] = declare(ListOf(STR), ())


def read(payload, table):
    return read_fields(payload, table, ProbeError, "rec")


class TestKinds:
    @pytest.mark.parametrize("kind,good,bad", [
        (INT, [0, -3, 2 ** 70], [True, 1.0, "1", None, [1]]),
        (Int(least=1), [1, 3], [0, -4]),
        (NUMBER, [0, -2, 0.5, 1e300], [True, float("nan"), float("inf"),
                                      "0.1", 10 ** 400]),
        (Number(above=0, below=1), [0.5, 1e-9], [0, 1, 0.0]),
        (BOOL, [True, False], [0, 1, "false", None]),
        (STR, ["", "a"], [1, None, ["a"]]),
        (NAME, ["a"], ["", 1]),
        (Choice(1, "a"), [1, "a"], [True, 1.0, "b"]),
    ])
    def test_accepts_exactly_its_json_values(self, kind, good, bad):
        for value in good:
            assert read({"k": value}, (Field("k", kind),)) == {"k": value}
        for value in bad:
            with pytest.raises(ProbeError, match=r"^rec\.k must be "):
                read({"k": value}, (Field("k", kind),))

    def test_list_reads_items_by_index_into_a_tuple(self):
        table = (Field("k", ListOf(Int(least=1), least=2, most=2)),)
        assert read({"k": [1, 2]}, table) == {"k": (1, 2)}
        with pytest.raises(ProbeError, match=r"rec\.k\[1\] must be an int"):
            read({"k": [1, 0]}, table)
        with pytest.raises(ProbeError, match="of length 2"):
            read({"k": [1]}, table)

    def test_build_errors_become_the_loaders_error(self):
        table = (Field("k", Kind("a string", STR.test, int)),)
        assert read({"k": "7"}, table) == {"k": 7}
        with pytest.raises(ProbeError, match=r"^rec\.k: invalid literal"):
            read({"k": "x"}, table)


class TestReadFields:
    def test_defaults_null_and_required(self):
        table = (Field("a", INT), Field("b", INT, 5), Field("c", INT, None),
                 Field("d", ListOf(INT), factory=list))
        assert read({"a": 1, "c": None}, table) == {
            "a": 1, "b": 5, "c": None, "d": []}
        with pytest.raises(ProbeError, match=r"rec\.b must be an int"):
            read({"a": 1, "b": None}, table)
        with pytest.raises(ProbeError, match=r"rec\.a is required"):
            read({}, table)

    def test_refuses_unknown_keys_and_non_objects(self):
        with pytest.raises(ProbeError, match=r"unknown field\(s\) \['z'\]"):
            read({"z": 1}, (Field("a", INT, 0),))
        with pytest.raises(ProbeError, match="rec must be a JSON object"):
            read([1], ())

    def test_retired_key_warns_then_drops_or_refuses(self):
        table = (Field("a", INT, 0), retired("mode", "fast", "slow"))
        with pytest.warns(DeprecationWarning, match="'mode' is deprecated"):
            assert read({"mode": "slow"}, table) == {"a": 0}
        with pytest.raises(ProbeError, match=r"rec\.mode must be one of its "
                                             r"retired values"):
            read({"mode": "warp"}, table)
        with pytest.raises(ProbeError, match=r"allowed: \['a'\]$"):
            read({"b": 1}, table)


class TestDataclassRecords:
    def test_table_follows_the_declarations(self):
        assert [field.key for field in table_of(Point)] == [
            "x", "label", "tags"]
        point = Record(Point).read({"x": 2, "tags": ["a"]}, ProbeError,
                                   "rec")
        assert point == Point(x=2, tags=("a",))

    def test_check_fields_applies_the_rule_to_python_values(self):
        point = Point(x=1, tags=["a", "b"])
        check_fields(point, ProbeError, "point")
        assert point.tags == ("a", "b")
        with pytest.raises(ProbeError, match=r"point\.x must be an int"):
            check_fields(Point(x=1.0), ProbeError, "point")

    def test_built_instances_pass_as_they_are(self):
        point = Point(x=1)
        assert Record(Point).read(point, ProbeError, "rec") is point
