"""The one field rule every record loader reads by (repro.utils.fields)."""

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import pytest

from repro.utils.fields import (
    BOOL,
    INT,
    MEASURED,
    NAME,
    NUMBER,
    STR,
    Choice,
    Declared,
    Field,
    Int,
    Kind,
    ListOf,
    MapOf,
    Number,
    Record,
    check_fields,
    declare,
    read_fields,
    table_of,
    write_fields,
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

    def test_measured_takes_every_number_as_a_float(self):
        table = (Field("k", MEASURED),)
        for value in (0, -3, 0.5, float("inf"), -float("inf")):
            got = read({"k": value}, table)["k"]
            assert type(got) is float and got == value
        assert math.isnan(read({"k": float("nan")}, table)["k"])
        for value in (True, "0.5", None, [1.0], 10 ** 400):
            with pytest.raises(ProbeError, match=r"^rec\.k must be a number"):
                read({"k": value}, table)

    def test_map_reads_values_by_key(self):
        table = (Field("k", MapOf(MEASURED)),)
        assert read({"k": {"a": 1, "b": 0.5}}, table) == {
            "k": {"a": 1.0, "b": 0.5}}
        with pytest.raises(ProbeError, match=r"^rec\.k\.b must be a number"):
            read({"k": {"a": 1, "b": "x"}}, table)
        for value in ([1, 2], "a"):
            with pytest.raises(ProbeError, match=r"^rec\.k must be a JSON"):
                read({"k": value}, table)

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


@dataclasses.dataclass
class Log(Declared):
    losses: List[float] = declare(ListOf(MEASURED, build=list),
                                  factory=list)
    stats: Dict[str, float] = declare(MapOf(MEASURED), factory=dict)
    point: Optional[Point] = declare(Record(Point), None)


class TestDeclaredRecords:
    def test_to_dict_round_trips_through_from_dict(self):
        log = Log(losses=[1.5, 2.0], stats={"a": 0.5}, point=Point(x=3))
        record = log.to_dict()
        assert record == {"losses": [1.5, 2.0], "stats": {"a": 0.5},
                          "point": {"x": 3, "label": None, "tags": []}}
        assert Log.from_dict(record) == log

    def test_writes_fresh_containers(self):
        log = Log(losses=[1.0], stats={"a": 1.0})
        record = write_fields(log)
        record["losses"].append(2.0)
        record["stats"]["b"] = 2.0
        assert log == Log(losses=[1.0], stats={"a": 1.0})

    def test_from_dict_refuses_with_value_error(self):
        with pytest.raises(ValueError, match=r"^Log\.losses\[0\] must be"):
            Log.from_dict({"losses": ["1"]})
        with pytest.raises(ValueError, match=r"unknown field\(s\) \['x'\] "
                                             r"in Log"):
            Log.from_dict({"x": 1})
