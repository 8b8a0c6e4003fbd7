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

A loader first reads an object by the function `reader` generates from the
spec, which runs every test of `fields` inline and forms no message; where
that reader declines, `fields` and `build` read the object again, only to
raise the error, so `fields` stays the one place a message is formed.
"""

from __future__ import annotations

import itertools
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


def reader(cls, spec: dict):
    """A function that reads an object by `spec` into `cls(*values)` as
    `build(cls, context, *fields(obj, context, spec))` does, or returns None
    where that would raise SchemaError; `cls` may return None to decline too.

    It is generated as Python source, as `dataclasses` generates `__init__`:
    every key, type and default test of `fields` and `check`, those of list
    entries too, runs inline in the order `fields` runs it, the records are
    built by direct calls and no context is formed. The source is built from
    the package's own specs, never from file contents."""
    lines, names = [], {"Fraction": Fraction, "isfinite": isfinite, "SchemaError": SchemaError, "_ABSENT": _ABSENT}

    def bind(value) -> str:
        """A global of the reader that holds `value`."""
        names[f"_g{len(names)}"] = value
        return f"_g{len(names) - 1}"

    count = itertools.count()

    def local() -> str:
        return f"v{next(count)}"

    def value(var: str, kind, pad: str) -> None:
        """Lines that test `var` against `kind` and leave its read value in `var`."""
        if kind is object:
            return
        if type(kind) is list:
            entries, entry = local(), local()
            lines.extend((f"{pad}if type({var}) is not list: return None", f"{pad}{entries} = []",
                          f"{pad}for {entry} in {var}:"))
            if len(kind) == 1:
                value(entry, kind[0], pad + "    ")
            else:
                entry = record(entry, kind[0], kind[1], pad + "    ")
            lines.extend((f"{pad}    {entries}.append({entry})", f"{pad}{var} = tuple({entries})"))
        elif kind is Fraction:
            lines.extend((f"{pad}if type({var}) is not Fraction:",
                          f"{pad}    if type({var}) is not int and not (type({var}) is float and isfinite({var})): return None",
                          f"{pad}    {var} = Fraction(str({var}))"))
        else:
            lines.append(f"{pad}if type({var}) is not {bind(kind)}: return None")

    def record(obj: str, cls, spec: dict, pad: str) -> str:
        """Lines that read the object `obj` by `spec`; the expression building `cls`."""
        lines.append(f"{pad}if type({obj}) is not dict or not {obj}.keys() <= {bind(spec.keys())}: return None")
        args = []
        for key, kind in spec.items():
            args.append(var := local())
            kind, default = kind if type(kind) is tuple else (kind, _ABSENT)
            tested = pad
            if default is _ABSENT:  # a missing key raises KeyError
                lines.append(f"{pad}{var} = {obj}[{key!r}]")
            elif kind is object or type(default) is kind:  # the default passes the test as it is
                lines.append(f"{pad}{var} = {obj}.get({key!r}, {bind(default)})")
            else:
                lines.extend((f"{pad}{var} = {obj}.get({key!r}, _ABSENT)",
                              f"{pad}if {var} is _ABSENT: {var} = {bind(default)}", f"{pad}else:"))
                tested = pad + "    "
            value(var, kind, tested)
        return f"{bind(cls)}({', '.join(args)})"

    built = record("obj", cls, spec, "        ")
    source = "\n".join(("def read(obj):", "    try:", *lines, f"        return {built}",
                        "    except (KeyError, SchemaError):", "        return None", ""))
    exec(source, names)  # the source holds only the spec's keys and the names bound above
    return names["read"]
