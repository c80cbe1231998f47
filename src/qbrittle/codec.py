"""File formats: the JSON codec for circuits and reports, and the CSV writer.

A dataclass is a JSON object keyed by its field names, in field order; one
with a `TAG` class attribute is a member of a tagged union, its object
carrying the tag under "type", first. An enum is its value and a tuple an
array. A table `dict[K, V]` is an object keyed by exactly the values of K, a
string enum or a Literal of strings. Decoding follows the type hints and checks
every value; the first bad one raises CircuitFormatError with its JSON path.
"""
from __future__ import annotations

import csv
import json
import reprlib
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from types import NoneType, UnionType
from typing import IO, Any, Callable, Iterable, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import CircuitFormatError, InvalidParameterError, _shown

TAG_KEY = "type"
# JSON type checks of the primitive field types: (accepted Python types, description).
_PRIMITIVES = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


@cache
def _primitive_fields(cls) -> tuple[tuple[str, Any, str], ...]:
    """(field name, accepted Python types, description) of each int, float or str field of `cls`."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_PRIMITIVES[hints[f.name]]) for f in fields(cls) if hints[f.name] in _PRIMITIVES)


def check_types(obj) -> None:
    """Raise InvalidParameterError unless every int, float and str field of
    dataclass `obj` holds a type the decoder reads back for it: an int for
    int, an int or a float for float (a bool is neither), so every accepted
    value round-trips through JSON."""
    for name, kinds, expected in _primitive_fields(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise InvalidParameterError(f"{name} must be {expected}, got {_shown(value, repr)}")


def encode(value):
    """Dataclasses to dicts, enums to their values, tuples to lists."""
    if value is None or isinstance(value, (int, float)):
        return value
    if is_dataclass(value):
        cls = type(value)
        obj = {f.name: encode(getattr(value, f.name)) for f in fields(cls)}
        return {TAG_KEY: cls.TAG, **obj} if hasattr(cls, "TAG") else obj
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {encode(k): encode(v) for k, v in value.items()}
    return value


def loads(text: str, name: str):
    """json.loads(text); text that does not parse raises CircuitFormatError naming it `name`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
        raise CircuitFormatError(f"{name} is not valid JSON: {exc}") from None


def decode(tp, obj, path: str):
    """Rebuild a value of type `tp` from `encode` output. `path` names `obj`
    in error messages, e.g. `report.class_summary.robust.fraction`."""
    return _decoder(tp)(obj, path)


def _fail(path: str, expected: str, obj):
    raise CircuitFormatError(f"{path}: must be {expected}, got {_shown(obj, reprlib.repr)}")


def _expect(obj, kinds, expected: str, path: str):
    if isinstance(obj, bool) or not isinstance(obj, kinds):  # JSON true/false is no number
        _fail(path, expected, obj)
    return obj


def _member(obj, key: str, path: str):
    if key not in _expect(obj, dict, "an object", path):
        raise CircuitFormatError(f"{path}: missing field {key!r}")
    return obj[key]


def _choose(choices: dict, obj, path: str):
    """The entry of `choices` under the JSON string `obj`."""
    if not isinstance(obj, str) or obj not in choices:
        _fail(path, "one of " + "|".join(choices), obj)
    return choices[obj]


def _values(tp) -> dict:
    """{JSON string: value} of a string enum or a Literal of strings; empty for any other type."""
    if get_origin(tp) is Literal:
        return {v: v for v in get_args(tp)}
    return {m.value: m for m in tp} if isinstance(tp, type) and issubclass(tp, Enum) else {}


@cache
def _decoder(tp) -> Callable[[Any, str], Any]:
    """The decoder of the annotated type `tp`, built once per type."""
    if tp in _PRIMITIVES:
        kinds, expected = _PRIMITIVES[tp]

        def primitive(obj, path: str):
            try:
                return tp(_expect(obj, kinds, expected, path))
            except OverflowError:  # a JSON integer beyond a float's range
                _fail(path, "a number within a float's range", obj)
        return primitive
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if NoneType in args:  # X | None
            inner = _decoder(Union[tuple(a for a in args if a is not NoneType)])
            return lambda obj, path: None if obj is None else inner(obj, path)
        by_tag = {m.TAG: _decoder(m) for m in args}  # dataclasses told apart by their TAG
        return lambda obj, path: _choose(by_tag, _member(obj, TAG_KEY, path), f"{path}.{TAG_KEY}")(obj, path)
    if origin is tuple:  # tuple[X, ...]
        item = _decoder(args[0])
        return lambda obj, path: tuple(
            item(v, f"{path}[{i}]") for i, v in enumerate(_expect(obj, list, "an array", path)))
    if origin is dict and _values(args[0]):  # a table, keyed by exactly K's values
        keys, val = _values(args[0]), _decoder(args[1])

        def table(obj, path: str):
            if set(_expect(obj, dict, "an object", path)) != set(keys):
                raise CircuitFormatError(f"{path}: keys must be {list(keys)}, got {list(obj)}")
            return {keys[k]: val(v, f"{path}.{k}") for k, v in obj.items()}
        return table
    if values := _values(tp):
        return lambda obj, path: _choose(values, obj, path)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        parts = [(f.name, _decoder(hints[f.name])) for f in fields(tp)]
        return lambda obj, path: tp(**{name: dec(_member(obj, name, path), f"{path}.{name}") for name, dec in parts})
    raise TypeError(f"no JSON decoder for {tp!r}")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip form, without a numpy wrapper
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def write_csv(stream: IO[str], header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write `header` and `rows` as CSV, every cell by one rule: None is empty,
    a bool 0/1, a float its shortest round-trip repr, an enum its value."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
