"""One schema for the config dataclasses: field checks and the JSON walk.

Each config dataclass states each field once: its type in the annotation,
its default in the class body, and its allowed values or range in the
rules its __post_init__ hands to check_fields.  check_fields checks every
field against its declared type, so direct construction, replace() and
decode all apply that one definition.  Numbers follow one rule: a float
field takes a finite float or an int (stored as a float), an int field
takes an int, and a bool is never a number.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys
import types
import typing

from .blockquant import FORMATS, FormatSpec

# A field value that decode has already reported: the field fails without
# a second message.
REPORTED = object()

POSITIVE = (lambda v: v > 0), "must be positive"
NON_NEGATIVE = (lambda v: v >= 0), "must be non-negative"
FRACTION = (lambda v: 0 <= v <= 1), "must lie in [0, 1]"
OPEN_FRACTION = (lambda v: 0 < v < 1), "must lie in (0, 1)"


def one_of(*allowed):
    *head, last = allowed
    words = f"{', '.join(head)}{',' if len(head) > 1 else ''} or {last}" if head else last
    return (lambda v: v in allowed), f"must be {words}"


def subset_of(allowed):
    allowed = frozenset(allowed)
    return (lambda v: v <= allowed), f"must be a subset of [{', '.join(sorted(allowed))}]"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _type_rule(tp):
    """(predicate, requirement) for a value of the declared type tp."""
    if tp is bool:
        return (lambda v: isinstance(v, bool)), "must be a boolean"
    if tp is int:
        return _is_int, "must be an integer"
    if tp is float:
        return ((lambda v: math.isfinite(v) if isinstance(v, float)
                 else _is_int(v) and abs(v) <= sys.float_info.max),
                "must be a finite number")
    if isinstance(tp, types.UnionType):  # X | None
        ok, must = _type_rule(tp.__args__[0])
        return (lambda v: v is None or ok(v)), must + " or None"
    origin = typing.get_origin(tp)
    if origin in (tuple, frozenset):
        item = tp.__args__[0]
        ok, _ = _type_rule(item)
        return ((lambda v: isinstance(v, origin) and all(map(ok, v))),
                f"must be a {origin.__name__} of {item.__name__}")
    return (lambda v: isinstance(v, tp)), f"must be a {tp.__name__}"


_FIELDS: dict[type, list] = {}


def _fields(cls) -> list:
    """(name, declared type, type predicate, requirement, required) per
    field of cls, built on first use."""
    if cls not in _FIELDS:
        hints = typing.get_type_hints(cls)
        _FIELDS[cls] = [(f.name, hints[f.name], *_type_rule(hints[f.name]),
                         f.default is f.default_factory is dataclasses.MISSING)
                        for f in dataclasses.fields(cls)]
    return _FIELDS[cls]


def check_fields(obj, **rules) -> dict:
    """Check each field of the dataclass obj against its declared type, then
    against its rule (name -> (predicate, requirement)); store ints given
    for floats as floats.  Returns name -> "name: must ... (got ...)" per
    failed field (None when decode already reported it), for __post_init__
    to add checks across fields before raise_errors."""
    errs = {}
    for name, tp, ok, must, _ in _fields(type(obj)):
        v = getattr(obj, name)
        if not ok(v):  # REPORTED is no value of any type
            errs[name] = None if v is REPORTED else f"{name}: {must} (got {v!r})"
        elif name in rules and not rules[name][0](v):
            errs[name] = f"{name}: {rules[name][1]} (got {v!r})"
        elif tp is float and type(v) is not float:
            object.__setattr__(obj, name, float(v))
    return errs


def raise_errors(errs: dict, error=ValueError) -> None:
    if errs:
        raise error("\n".join(m for m in errs.values() if m))


def to_json(value):
    """A config object as JSON values: formats by name, sets as sorted
    lists, enums by value."""
    if isinstance(value, FormatSpec):
        return value.name
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, frozenset)):
        items = list(map(to_json, value))
        return items if isinstance(value, tuple) else sorted(items)
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def decode(cls, doc) -> tuple[object, list[str]]:
    """(the object doc describes, []), or (None, every violation in doc as
    a "dotted.path: must ... (got ...)" line)."""
    errs: list[str] = []
    obj = _decode(cls, doc, "", errs)
    return (None if errs else obj), errs


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _decode(tp, value, path: str, errs: list):
    """value as the declared type tp, or REPORTED once errs says why not.
    Scalars pass as they are, for the field checks of their object; an
    object is constructed from the fields that decoded, so the violations
    of every field are listed."""
    def fail(must):
        errs.append(f"{path or 'config'}: {must} (got {value!r})")
        return REPORTED

    if isinstance(tp, types.UnionType):
        return None if value is None else _decode(tp.__args__[0], value, path, errs)
    if tp is FormatSpec:
        if isinstance(value, str) and value in FORMATS:
            return FORMATS[value]
        return fail(f"must be one of {', '.join(sorted(FORMATS))}")
    origin = typing.get_origin(tp)
    if origin in (tuple, frozenset):
        item = tp.__args__[0]
        if isinstance(value, list):
            try:
                return origin(item(v) if isinstance(item, enum.EnumMeta) else v
                              for v in value)
            except (TypeError, ValueError):  # unhashable, or no such member
                pass
        if isinstance(item, enum.EnumMeta):
            return fail(f"must be a subset of [{', '.join(m.value for m in item)}]")
        return fail(f"must be a list of {item.__name__}")
    if not dataclasses.is_dataclass(tp):
        return value
    if not isinstance(value, dict):
        return fail("must be an object")
    fields = _fields(tp)
    errs.extend(f"{_join(path, k)}: unknown field"
                for k in sorted(set(value) - {f[0] for f in fields}, key=str))
    kwargs, complete = {}, True
    for name, field_tp, _, _, required in fields:
        if name in value:
            kwargs[name] = _decode(field_tp, value[name], _join(path, name), errs)
        elif required:
            errs.append(f"{_join(path, name)}: must be given")
            complete = False
    if not complete:
        return REPORTED
    try:
        return tp(**kwargs)
    except ValueError as e:
        errs.extend(_join(path, m) for m in str(e).splitlines())
        return REPORTED
