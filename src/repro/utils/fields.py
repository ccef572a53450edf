"""One field rule for every JSON record the library loads and writes.

The spec, deployment, fault-plan and compiled-kernel records, and the
records a run directory resumes from, declare each field once — key,
JSON kind with its bounds, default — and read through
:func:`read_fields` and write through :func:`write_fields`.  A field
takes only its kind, uncoerced (``"7"``, ``7.0`` and ``true`` are not
ints, ``NaN`` is not a number); a field whose default is ``None`` also
takes ``null``; unknown and missing keys are refused, with the loader's
own typed error naming ``where.key`` and the value.  Rules that span
fields stay with each loader.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

#: No default (dataclasses' own marker): the record must carry the field.
MISSING = dataclasses.MISSING
#: Dataclass-field metadata key of a field's kind (:func:`declare`).
_KIND = "repro.fields.kind"


def is_int(value: object) -> bool:
    """A JSON int: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """A finite JSON number: an int or float, not a bool, NaN or inf,
    nor an int too large for a float (``10**400``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class Kind:
    """What a field takes (``test``), what its loader builds from it
    (``build``) and what its writer takes back (``unbuild``); a refused
    value, or a ``KeyError`` or ``ValueError`` from ``build``, raises
    the loader's ``error`` naming ``where``."""

    def __init__(self, want: str, test: Callable[[Any], bool],
                 build: Optional[Callable[[Any], Any]] = None,
                 unbuild: Optional[Callable[[Any], Any]] = None):
        self.want, self.test = want, test
        self.build, self.unbuild = build, unbuild

    def parse(self, value, error, where: str):
        if not self.test(value):
            raise error(f"{where} must be {self.want}, "
                        f"got {reprlib.repr(value)}")
        return value

    def dump(self, value):
        """:meth:`parse`'s inverse: a declared record by its fields, lists
        and tuples as fresh lists, objects as fresh dicts."""
        if dataclasses.is_dataclass(value):
            return write_fields(value)
        if isinstance(value, (list, tuple)):
            return [self.dump(item) for item in value]
        if isinstance(value, Mapping):
            return {key: self.dump(item) for key, item in value.items()}
        return value

    def write(self, value):
        """The JSON value :meth:`read` builds ``value`` from."""
        if value is not None and self.unbuild is not None:
            value = self.unbuild(value)
        return None if value is None else self.dump(value)

    def read(self, value, error, where: str):
        value = self.parse(value, error, where)
        if self.build is None:
            return value
        try:
            return self.build(value)
        except (KeyError, ValueError) as exc:
            if isinstance(exc, error):
                raise
            raise error(f"{where}: {exc.args[0] if exc.args else exc}") \
                from exc


def Int(least: Optional[int] = None) -> Kind:
    """A JSON int of at least ``least``."""
    return Kind("an int" + ("" if least is None else f" >= {least}"),
                lambda v: is_int(v) and (least is None or v >= least))


def Number(above: Optional[float] = None,
           below: Optional[float] = None) -> Kind:
    """A finite JSON number strictly between ``above`` and ``below``."""
    limits = " and ".join(f"{op} {bound}" for op, bound in (
        (">", above), ("<", below)) if bound is not None)
    return Kind(f"a finite number {limits}".rstrip(),
                lambda v: (is_finite_number(v)
                           and (above is None or v > above)
                           and (below is None or v < below)))


def Choice(*options) -> Kind:
    """One of ``options``, of the option's own type (``true`` is not 1)."""
    return Kind(f"one of {list(options)}", lambda v: any(
        type(v) is type(option) and v == option for option in options))


INT = Int()
NUMBER = Number()
#: A measured value: any JSON number, NaN and ±inf included (a diverged
#: loss is written as ``NaN``), built into a float.
MEASURED = Kind("a number", lambda v: isinstance(v, float) or (
    is_int(v) and is_finite_number(v)), float)
BOOL = Kind("a bool", lambda v: isinstance(v, bool))
STR = Kind("a string", lambda v: isinstance(v, str))
NAME = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
#: A JSON object read later, through a table another field picks.
OBJECT = Kind("a JSON object", lambda v: isinstance(v, Mapping))


class ListOf(Kind):
    """A JSON list of ``least`` to ``most`` ``item`` values, built into
    a tuple unless ``build`` says otherwise."""

    def __init__(self, item: Kind, least: int = 0,
                 most: Optional[int] = None, build=tuple, unbuild=None):
        super().__init__(
            "a list" + (f" of length {least}" if least == most
                        else f" of length >= {least}" if least else ""),
            lambda v: (isinstance(v, (list, tuple)) and least <= len(v)
                       and (most is None or len(v) <= most)),
            build, unbuild)
        self.item = item

    def parse(self, value, error, where):
        return [self.item.read(entry, error, f"{where}[{index}]")
                for index, entry in enumerate(super().parse(value, error,
                                                            where))]

    def dump(self, value):
        return [self.item.write(entry) for entry in value]


class MapOf(Kind):
    """A JSON object of ``item`` values, built into a dict."""

    def __init__(self, item: Kind):
        super().__init__(OBJECT.want, OBJECT.test)
        self.item = item

    def parse(self, value, error, where):
        return {key: self.item.read(entry, error, f"{where}.{key}")
                for key, entry in super().parse(value, error, where).items()}

    def dump(self, value):
        return {key: self.item.write(entry) for key, entry in value.items()}


class Record(Kind):
    """A JSON object read through the table the dataclass ``cls``
    declares and built into ``cls``.  An instance of ``cls`` built in
    Python passes as it is: it checked itself."""

    def __init__(self, cls: type):
        super().__init__(OBJECT.want, OBJECT.test, lambda kw: cls(**kw))
        self.cls = cls

    def parse(self, value, error, where):
        return read_fields(value, table_of(self.cls), error, where)

    def read(self, value, error, where):
        if isinstance(value, self.cls):
            return value
        return super().read(value, error, where)


class Field(NamedTuple):
    """One record field: key, kind, and a default or a ``factory`` that
    makes a fresh one."""

    key: str
    kind: Kind
    default: object = MISSING
    factory: Callable[[], object] = MISSING


def read_fields(payload: object, table: Tuple[Field, ...], error,
                where: str) -> Dict[str, Any]:
    """``payload``'s values by ``table``: each key read by its kind, an
    absent key given its default.  ``error`` is the loader's exception
    type, ``where`` the record's name."""
    if not isinstance(payload, Mapping):
        raise error(f"{where} must be a JSON object, "
                    f"got {reprlib.repr(payload)}")
    unknown = set(payload) - {field.key for field in table}
    if unknown:
        allowed = sorted(field.key for field in table)
        raise error(f"unknown field(s) {sorted(unknown, key=str)} in "
                    f"{where}; allowed: {allowed}")
    values = {}
    for key, kind, default, factory in table:
        if key in payload:
            value = payload[key]
            if value is not None or default is not None:
                value = kind.read(value, error, f"{where}.{key}")
        elif factory is not MISSING:
            value = factory()
        elif default is MISSING:
            raise error(f"{where}.{key} is required")
        else:
            value = default
        values[key] = value
    return values


def declare(kind: Kind, default: object = MISSING, *,
            factory: Callable[[], object] = MISSING):
    """A dataclass field that is also a record field (:func:`table_of`)."""
    return dataclasses.field(default=default, default_factory=factory,
                             metadata={_KIND: kind})


@functools.lru_cache(maxsize=None)
def table_of(cls: type) -> Tuple[Field, ...]:
    """The fields dataclass ``cls`` declares with :func:`declare`."""
    return tuple(Field(item.name, item.metadata[_KIND], item.default,
                       item.default_factory)
                 for item in dataclasses.fields(cls) if _KIND in item.metadata)


def write_fields(record: Any,
                 table: Optional[Tuple[Field, ...]] = None) -> Dict[str, Any]:
    """The JSON object :func:`read_fields` reads back by ``table`` (by
    default the fields ``record``'s dataclass declares), each value
    taken from ``record`` (a mapping or a dataclass) by its kind."""
    if table is None:
        table = table_of(type(record))
    values = record if isinstance(record, Mapping) else vars(record)
    return {field.key: field.kind.write(values[field.key])
            for field in table}


class Declared:
    """A dataclass record whose declared fields are its JSON form."""

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form; :meth:`from_dict` reads it back equal."""
        return write_fields(self)

    @classmethod
    def from_dict(cls, data: Any):
        """Read a :meth:`to_dict` form by the declared fields; a value
        they refuse raises ``ValueError`` naming the field."""
        return Record(cls).read(data, ValueError, cls.__name__)


def check_fields(record: object, error, where: str) -> None:
    """:func:`read_fields` on a dataclass record built in Python, keeping
    what it reads (lists become tuples)."""
    table = table_of(type(record))
    values = read_fields({field.key: getattr(record, field.key)
                          for field in table}, table, error, where)
    for key, value in values.items():
        object.__setattr__(record, key, value)
