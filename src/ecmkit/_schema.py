"""The one reader of machine and kernel files, and the text reader of the
measurement CSV, whose rows `model.read_measurements` checks.

A loader returns a checked value or raises SchemaError with a one-line
message that starts with the file's path: a fault found here names the
field, one a dataclass invariant finds names the object and the field, and
a list entry is named by its place, as `ports[2]`. A spec says what each key
holds, lists and objects included (see `check`), so one `fields` call reads
a whole file, each object once, depth first in spec order. A valid file
forms no message: a fault raises one that names its place below the
object, and each enclosing key, list entry and record puts its part in
front as the error passes up, the loader the path last. A file that cannot
be opened raises OSError. The CLI maps both to one `error:` line and exit
code 2. Nothing is coerced: a number becomes a Fraction only by its
exact decimal reading, and this is the one place a float is read at all.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from math import isfinite

from .errors import SchemaError

_EXPECTED = {int: "an integer", Fraction: "a finite number", str: "a string", bool: "a boolean", list: "a list"}
_ABSENT = object()


def read_text(path) -> str:
    """The file's UTF-8 text, newlines untranslated."""
    with open(path, "rb", buffering=0) as fh:  # one raw read: no buffer object, no isatty probe
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


def check(value, kind):
    """`value` if its type is `kind` (a bool is no int), the one type test of
    a list entry and of a value `fields` does not take inline; for Fraction,
    an int or finite float by its decimal repr; for object, any value, for
    its dataclass to check. A spec dict reads an object by `fields(value,
    spec)`, as a list. `[item]` reads a list of `item`s, each by `check`, and
    `[cls, spec]` a list of objects, each read by `fields(entry, spec, cls)`,
    as a tuple; a fault in entry i is raised with `[i]` in front of its message."""
    if type(kind) is dict:
        return fields(value, kind)
    if type(kind) is list and type(value) is list:
        entries = []
        try:
            if len(kind) == 1:
                for entry in value:
                    entries.append(check(entry, kind[0]))
            else:
                cls, spec = kind
                for entry in value:
                    entries.append(fields(entry, spec, cls))
        except SchemaError as exc:
            raise SchemaError(f"[{len(entries)}]{exc}") from None  # the entries read are those before the fault
        return tuple(entries)
    if type(value) is kind or kind is object:
        return value
    if kind is Fraction and (type(value) is int or type(value) is float and isfinite(value)):
        return Fraction(str(value))
    # reprlib bounds the message for huge and deeply nested values
    raise SchemaError(f": expected {_EXPECTED[list if type(kind) is list else kind]}, got {reprlib.repr(value)}")


def require_number(value, context: str, *args, exact: bool = False) -> None:
    """Raise SchemaError naming `context` unless `value` is an int (a bool is
    none) or, if `exact`, an int or a Fraction: a record's invariants refuse
    what the model cannot compute with exactly, such as a float. `context`
    is a format string, filled with `args` only for a refusal, so a valid
    value forms no message."""
    if type(value) is not int and not (exact and type(value) is Fraction):
        kind = "an integer or a Fraction" if exact else "an integer"
        raise SchemaError(f"{context.format(*args)} must be {kind}, got {reprlib.repr(value)}")


def require_positive(value, context: str, *args, exact: bool = False) -> None:
    """`require_number`, then raise SchemaError naming `context` unless `value`
    is positive: "must be > 0" if `exact`, "must be >= 1" for an integer."""
    require_number(value, context, *args, exact=exact)
    if value <= 0:
        raise SchemaError(f"{context.format(*args)} must be {'> 0' if exact else '>= 1'}")


def require_bool(value, context: str, *args) -> None:
    """Raise SchemaError naming `context`, filled with `args` as `require_number`
    fills it, unless `value` is a bool: a record refuses a string such as
    "false", which Python would read as true."""
    if type(value) is not bool:
        raise SchemaError(f"{context.format(*args)} must be a boolean, got {reprlib.repr(value)}")


def fields(obj, spec: dict, cls=None):
    """The values of the keys in `spec`, in its order, from an object with no
    other keys, each read by `check` (a list kind gives a tuple, a spec dict
    a list); given `cls`, `cls(*values)`. A `(kind, default)` pair marks an
    optional key, whose default is returned as given. A fault raises
    SchemaError with a message that names its place below the object and
    starts with ": ", such as `: streams[2]: count: expected an integer, got
    'x'`; one that `cls` raises gets ": " in front of its own message."""
    if type(obj) is not dict:
        raise SchemaError(f": expected an object, got {reprlib.repr(obj)}")
    values, read = [], 0  # `read` counts the keys of obj read: an unknown key leaves it below len(obj)
    try:
        for key, kind in spec.items():
            value = obj.get(key, _ABSENT)
            if type(kind) is tuple:
                kind, default = kind
                if value is _ABSENT:
                    values.append(default)
                    continue
            elif value is _ABSENT:
                break
            read += 1
            values.append(value if type(value) is kind or kind is object else check(value, kind))
    except SchemaError as exc:
        if obj.keys() <= spec.keys():  # else the unknown key, the first fault, leaves `read` short
            raise SchemaError(f": {key}{exc}") from None
    if read < len(obj) or len(values) < len(spec):  # an unknown key, or the loop stopped at a missing one
        if not obj.keys() <= spec.keys():
            raise SchemaError(f": unknown key(s) {sorted(obj.keys() - spec.keys())}")
        missing = sorted(k for k, kd in spec.items() if type(kd) is not tuple and k not in obj)
        raise SchemaError(f": missing key(s) {missing}")
    if cls is None:
        return values
    try:
        return cls(*values)
    except SchemaError as exc:
        raise SchemaError(f": {exc}") from None
