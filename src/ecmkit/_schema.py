"""The one reader of machine and kernel files, and the text reader of the
measurement CSV, whose rows `model.read_measurements` checks.

A loader returns a checked value or raises SchemaError with a one-line
message that starts with the file's path: a fault found here names the
field, one a dataclass invariant finds (through `build`) names the object
and the field, and a list entry is named by its place, as `ports[2]`. A spec
says what each key holds, lists included (see `check`). A file that cannot
be opened raises OSError. The CLI maps both to one `error:` line and exit
code 2. Nothing is coerced: a number becomes a Fraction only by its exact
decimal reading, and this is the one place a float is read at all.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from math import isfinite

from .errors import SchemaError

_EXPECTED = {int: "an integer", Fraction: "a finite number", str: "a string", bool: "a boolean", list: "a list",
             dict: "an object"}
_ABSENT = object()


def read_text(path) -> str:
    """The file's UTF-8 text, newlines untranslated."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path):
    """The JSON value in a UTF-8 file; bad syntax, an integer literal longer than
    int() converts and nesting deeper than the recursion limit all fail alike."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None


def check(value, kind, context: str):
    """`value` if of `kind` (a bool is no int); for Fraction, an int or finite
    float by its decimal repr; for object, any value, for its dataclass to
    check. `[item]` reads a list of `item`s and `[cls, spec]` a list of objects,
    each built into `cls` from its `fields`, as a tuple; entry i is `{context}[{i}]`."""
    if type(kind) is list and type(value) is list:
        entries = []
        for i, entry in enumerate(value):
            ctx = f"{context}[{i}]"
            entries.append(check(entry, kind[0], ctx) if len(kind) == 1 else build(kind[0], ctx, *fields(entry, ctx, kind[1])))
        return tuple(entries)
    if type(value) is kind or kind is object:
        return value
    if kind is Fraction and (type(value) is int or type(value) is float and isfinite(value)):
        return Fraction(str(value))
    # reprlib bounds the message for huge and deeply nested values
    raise SchemaError(f"{context}: expected {_EXPECTED[list if type(kind) is list else kind]}, got {reprlib.repr(value)}")


def require_number(value, context: str, exact: bool = False) -> None:
    """Raise SchemaError naming `context` unless `value` is an int (a bool is
    none) or, if `exact`, an int or a Fraction: a record's invariants refuse
    what the model cannot compute with exactly, such as a float."""
    if type(value) is not int and not (exact and type(value) is Fraction):
        kind = "an integer or a Fraction" if exact else "an integer"
        raise SchemaError(f"{context} must be {kind}, got {reprlib.repr(value)}")


def require_positive(value, context: str, exact: bool = False) -> None:
    """`require_number`, then raise SchemaError naming `context` unless `value`
    is positive: "must be > 0" if `exact`, "must be >= 1" for an integer."""
    require_number(value, context, exact)
    if value <= 0:
        raise SchemaError(f"{context} must be {'> 0' if exact else '>= 1'}")


def require_bool(value, context: str) -> None:
    """Raise SchemaError naming `context` unless `value` is a bool: a record
    refuses a string such as "false", which Python would read as true."""
    if type(value) is not bool:
        raise SchemaError(f"{context} must be a boolean, got {reprlib.repr(value)}")


def fields(obj, context: str, spec: dict) -> list:
    """The values of the keys in `spec`, in its order, from an object with no
    other keys, each read by `check` (a list kind gives a tuple). A `(kind,
    default)` pair marks an optional key, whose default is returned as given."""
    if type(obj) is not dict:
        raise SchemaError(f"{context}: expected an object, got {reprlib.repr(obj)}")
    if not obj.keys() <= spec.keys():
        raise SchemaError(f"{context}: unknown key(s) {sorted(obj.keys() - spec.keys())}")
    values = []
    for key, kind in spec.items():
        value = obj.get(key, _ABSENT)
        if type(kind) is tuple:
            kind, default = kind
            if value is _ABSENT:
                values.append(default)
                continue
        elif value is _ABSENT:
            missing = sorted(k for k, kd in spec.items() if type(kd) is not tuple and k not in obj)
            raise SchemaError(f"{context}: missing key(s) {missing}")
        values.append(value if type(value) is kind or kind is object else check(value, kind, f"{context}: {key}"))
    return values


def build(cls, context: str, *args, **kwargs):
    """cls(*args, **kwargs), with `context` put in front of the message of a
    SchemaError that the dataclass's own invariants raise."""
    try:
        return cls(*args, **kwargs)
    except SchemaError as exc:
        raise SchemaError(f"{context}: {exc}") from None
