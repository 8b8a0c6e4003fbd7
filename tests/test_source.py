"""Checks on the package source itself."""

import ast
import importlib
import inspect
import re
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import pytest

import ecmkit
from ecmkit import Measurement, PenaltyConfig, SchemaError, UopGroup
from ecmkit._schema import require_number
from ecmkit.kernels import KernelModel, Stream
from ecmkit.machine import CacheBoundary, MemoryModel

PACKAGE = Path(ecmkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == ["line 2: os", "line 3: b"]


def test_package_modules_have_no_unused_imports():
    """Nor do the test modules."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in found.items() if names} == {}


def private_sibling_imports(source: str) -> list[str]:
    """Leading-underscore names a module imports from a sibling module whose
    own name has no leading underscore."""
    return sorted(
        f"line {node.lineno}: {alias.name} from .{node.module}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module and not node.module.startswith("_")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_sibling_imports_are_found():
    source = "from ._pairing import _pack\nfrom .machine import CACHE_LINE_BYTES, _as_int\nfrom os import _exit\n"
    assert private_sibling_imports(source) == ["line 2: _as_int from .machine"]


def test_package_modules_import_no_private_name_of_a_public_sibling():
    found = {path.name: private_sibling_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def uses_of(name: str, sources: dict[str, str]) -> list[str]:
    """Where the modules of `sources` (name -> source) read `name`, as a
    name or an attribute (a call reads it too), or import it:
    "module.function" inside a function (the innermost), "module" at module
    level."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {}  # node -> its innermost function; ast.walk reaches outer functions first
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(function), f"{module}.{function.name}"))
        for node in ast.walk(tree):
            read = isinstance(getattr(node, "ctx", None), ast.Load) and name in (getattr(node, "id", None), getattr(node, "attr", None))
            if read or isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names):
                found.add(owner.get(node, module))
    return sorted(found)


def test_uses_of_a_name_are_found():
    sources = {
        "a": "from ._pairing import port_set_unions as unions\n",
        "b": "def f(s):\n    def g():\n        return _pairing.port_set_unions(s)\n    return g\n",
        "c": "port_set_unions = None\nx = [port_set_unions]\n",
        "d": "class C:\n    def m(self):\n        return port_set_unions([])\n",
        "e": "port_set_unions = None\n",
    }
    assert uses_of("port_set_unions", sources) == ["a", "b.g", "c", "d.m"]


def test_only_hall_bounds_enumerates_port_set_unions():
    """Every port bound of the package is a Hall bound from
    _pairing.hall_bounds, so no second form of the condition grows unseen."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uses_of("port_set_unions", sources) == ["_pairing.hall_bounds"]


def test_only_the_stream_rule_reads_the_vector_op_width():
    """The built-in kernels' load and store groups and the consistency check
    both take their counts from kernels._implied_memory_uops, so the rule
    that a stream costs a vector op per VECTOR_OP_BYTES of a line is stated
    once."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uses_of("VECTOR_OP_BYTES", sources) == ["kernels._implied_memory_uops"]


def diagnostics_outside_run(sources: dict[str, str]) -> list[str]:
    """Modules of `sources` that import `warnings`, and places (as
    `uses_of` names them) that read `stderr` other than `cli.run`."""
    found = {f"{module}: imports warnings" for module, source in sources.items() for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "warnings" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "warnings"}
    return sorted(found | {f"{place}: names stderr" for place in uses_of("stderr", sources) if place != "cli.run"})


def test_diagnostics_outside_run_are_found():
    sources = {
        "cli": "import sys\ndef run():\n    print('x', file=sys.stderr)\ndef cmd():\n    print('y', file=sys.stderr)\n",
        "kernels": "import warnings\nwarnings.warn('z')\n",
        "model": "from warnings import warn\nfrom sys import stderr\n",
        "scaling": "import os, warnings as w\n",
        "traffic": "import warningsx\nimport contextlib\nredirect = contextlib.redirect_stderr\n",
    }
    assert diagnostics_outside_run(sources) == [
        "cli.cmd: names stderr", "kernels: imports warnings", "model: imports warnings", "model: names stderr",
        "scaling: imports warnings",
    ]


def test_only_cli_run_writes_diagnostics():
    """Every warning the package reports is a `warning:` line that cli.run
    prints from one list, so no module raises Python warnings and no other
    function writes to stderr."""
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert diagnostics_outside_run(sources) == []


BOUND_MESSAGE = re.compile(r"must be (> 0|>= 1)$")


def bound_messages(source: str) -> list[str]:
    """String pieces, plain or of an f-string, that end in a positive-bound
    message, as "line N: text"."""
    return sorted(
        f"line {node.lineno}: {node.value}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and BOUND_MESSAGE.search(node.value)
    )


def test_bound_messages_are_found():
    source = 'a = "x must be > 0"\nb = f"{c} must be >= 1"\nd = f"count must be >= 1, got {n}"\ne = "must be > 01"\n'
    assert bound_messages(source) == ["line 1: x must be > 0", "line 2:  must be >= 1"]


def test_only_the_schema_writes_the_positive_bound_message():
    """Every record field that must be positive is checked by
    _schema.require_positive, so its message is written once."""
    found = {path.name: bound_messages(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "_schema.py"} == {}


def specs_naming_no_entries(source: str) -> list[str]:
    """Keys of module-level dicts that map a key to the bare `list` or `dict`,
    alone or as the kind of a `(kind, default)` pair: a file spec should say
    what its lists and objects hold, as `[str]`, `[cls, spec]` or a nested
    spec, so one `_schema.fields` call reads the whole file."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            name = ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
            for key, value in zip(node.value.keys, node.value.values):
                kind = value.elts[0] if isinstance(value, ast.Tuple) and value.elts else value
                if isinstance(kind, ast.Name) and kind.id in ("list", "dict"):
                    found.append(f"line {node.lineno}: {name}[{ast.unparse(key)}]")
    return found


def test_specs_naming_no_entries_are_found():
    source = (
        '_A = {"ports": list, "name": str}\n_B = {"table": (list, ()), "rows": [str], list: "a list"}\n'
        'def f():\n    _C = {"x": list}\n_D: dict = {"ids": [int], "other": (int, list)}\n'
        '_E = {"memory": dict, "numa": (dict, {}), "row": _D, dict: "an object"}\n'
    )
    assert specs_naming_no_entries(source) == [
        "line 1: _A['ports']", "line 2: _B['table']", "line 6: _E['memory']", "line 6: _E['numa']",
    ]


def test_every_file_spec_names_what_its_lists_hold():
    """And what its objects hold: no spec names a bare `list` or `dict`."""
    found = {path.name: specs_naming_no_entries(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def memoized_functions_with_parameters(source: str) -> list[str]:
    """Functions that take parameters and carry functools.cache or
    lru_cache, which would keep every argument alive for the process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("cache", "lru_cache"):
                        found.append(f"line {node.lineno}: {node.name}")
    return found


def test_memoized_functions_with_parameters_are_found():
    source = (
        "import functools\nfrom functools import cache, cached_property, lru_cache\n"
        "@cache\ndef table():\n    pass\n@lru_cache(maxsize=8)\ndef solve(x):\n    pass\n"
        "@functools.cache\ndef grow(*x):\n    pass\n@cached_property\ndef order(self):\n    pass\n"
        "class A:\n    @functools.lru_cache\n    def get(self):\n        pass\n"
    )
    assert memoized_functions_with_parameters(source) == ["line 7: solve", "line 10: grow", "line 17: get"]


CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
STORING_METHODS = {"setdefault", "update", "append", "extend", "add", "insert"}


def stores_into_module_containers(source: str) -> list[str]:
    """Stores that functions make into containers bound at module level: a
    subscript assignment, or a call of a storing method such as setdefault,
    update or append, on the container or an item of it. A function whose
    parameter or assignment binds the same name stores into its own."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", None)) in CONTAINER_CALLS
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}

    def base(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = function.args
        bound = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg}
        body = function.body if isinstance(function.body, list) else [function.body]
        nodes = [node for statement in body for node in ast.walk(statement)]
        bound |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [base(t) for t in targets if isinstance(t, ast.Subscript)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in STORING_METHODS:
                names = [base(node.func.value)]
            else:
                continue
            # a nested function's stores are walked with its own and each outer function
            found |= {(node.lineno, name) for name in names if name in containers and name not in bound}
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_stores_into_module_containers_are_found():
    source = (
        "from collections import defaultdict\n"
        "_MEMO = {}\n_SEEN: set = set()\n_LOG = []\n_BY = defaultdict(list)\nLIMIT = 4\nTABLE = {'a': 1}\n"
        "TABLE['b'] = 2\n"
        "def solve(x):\n    _MEMO[x] = x\n    return _MEMO.setdefault(x, x)\n"
        "def note(x):\n    _LOG.append(x)\n    _BY[x].append(x)\n    TABLE.update(b=3)\n"
        "class A:\n    def put(self, x):\n        _SEEN.add(x)\n        self.memo[x] = TABLE['a']\n"
        "def local(TABLE):\n    TABLE['c'] = 3\n"
        "def rebound():\n    _LOG = []\n    _LOG.append(LIMIT)\n"
        "def count(x):\n    _MEMO[x] += 1\n    return sorted(_SEEN)\n"
    )
    assert stores_into_module_containers(source) == [
        "line 10: _MEMO", "line 11: _MEMO", "line 13: _LOG", "line 14: _BY", "line 15: TABLE", "line 18: _SEEN",
        "line 26: _MEMO",
    ]


def test_package_functions_with_parameters_carry_no_process_wide_memo():
    """A memo keyed by arguments belongs to the object whose lifetime
    matches its key, as CoreLayout.spans and MachineModel._curves do, not to
    the process: neither a functools memo nor a module-level container that
    package functions store into."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: memoized_functions_with_parameters(source) + stores_into_module_containers(source)
             for name, source in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}


def clear_calls(source: str) -> list[str]:
    """Calls of a `clear` method anywhere but in Memo.put, the one place a
    memo is cleared when full."""
    tree = ast.parse(source)
    put = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Memo"
           for function in cls.body if isinstance(function, ast.FunctionDef) and function.name == "put"
           for node in ast.walk(function)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "clear" and id(node) not in put]
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(calls, key=lambda node: node.lineno)]


def test_clear_calls_are_found():
    source = (
        "class Memo(dict):\n    def put(self, key, value):\n        self.clear()\n"
        "    def drop(self):\n        self.clear()\n"
        "class Other:\n    def put(self):\n        self.memo.clear()\n"
        "def f(memo):\n    memo.clear()\n    memo.clearly()\n    clear()\n"
    )
    assert clear_calls(source) == ["line 5: self.clear()", "line 8: self.memo.clear()", "line 10: memo.clear()"]


def test_only_memo_put_clears_a_memo():
    """The clear-when-full policy is written once, in machine.Memo.put:
    every memo of the package stores through it."""
    found = {path.name: clear_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def code_built_at_run_time(source: str) -> list[str]:
    """Calls of the built-ins `exec`, `eval` and `compile`, by name or as
    attributes of `builtins`: code they run is built while the program runs,
    so no review reads it in the source."""
    names = {"exec", "eval", "compile"}
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in names
        or isinstance(node.func, ast.Attribute) and node.func.attr in names
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "builtins")]
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(calls, key=lambda node: node.lineno)]


def test_code_built_at_run_time_is_found():
    source = (
        "import builtins, re\ndef f(source, names):\n    exec(source, names)\n"
        "    return eval('1') + builtins.compile(source, 'f', 'exec')\n"
        "pattern = re.compile('x')\nkind = 'exec'\ncompiled = compile\n"
    )
    assert code_built_at_run_time(source) == [
        "line 3: exec(source, names)", "line 4: eval('1')", "line 4: builtins.compile(source, 'f', 'exec')"]


def test_package_modules_build_no_code_at_run_time():
    """Every line the package runs is in its source: no module builds code
    from strings with `exec`, `eval` or `compile`."""
    found = {path.name: code_built_at_run_time(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names (one leading underscore, not dunder) that
    no code of the given modules reads outside the name's own definition. A
    read is a load of the bare name or an attribute of that name; importing
    the name is not a read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defined = []  # (module, name, its defining statement)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    unread = []
    for module, name, definition in defined:
        inside = {id(n) for n in ast.walk(definition)}
        read = any(
            id(node) not in inside
            and (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.Attribute) and node.attr == name)
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not read:
            unread.append(f"{module}: {name}")
    return sorted(unread)


def test_unread_private_names_are_found():
    sources = {
        "a.py": "def _hook(x):\n    return _hook(x - 1)\n_TABLE = {}\n_used = 1\n__all__ = []\n",
        "b.py": "from .a import _used\nprint(_used)\nclass _Memo:\n    def get(self):\n        return _Memo\n",
    }
    assert unread_private_names(sources) == ["a.py: _TABLE", "a.py: _hook", "b.py: _Memo"]


def test_package_code_reads_every_private_module_level_name():
    """A private helper that only tests call is a hook the package does not
    need; tests reach the model through what the package itself uses."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def unread_exports(exports, bench_sources: list[str], test_sources: list[str]) -> list[str]:
    """Names of `exports` that no bench module reads as `ek.NAME` and no test
    module imports from ecmkit."""
    read = set()
    for source in bench_sources:
        read |= {
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ek"
        }
    for source in test_sources:
        read |= {
            alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "ecmkit"
            for alias in node.names
        }
    return sorted(set(exports) - read)


def test_unread_exports_are_found():
    bench = ["import ecmkit as ek\nek.predict(ek.builtin_haswell())\nother.scale()\n"]
    tests = ["from ecmkit import traffic\nfrom ecmkit.model import parse_ecm\nimport ecmkit\necmkit.scale()\n"]
    exports = ["builtin_haswell", "parse_ecm", "predict", "scale", "traffic"]
    assert unread_exports(exports, bench, tests) == ["parse_ecm", "scale"]


def test_the_package_exports_only_what_the_bench_or_the_tests_read():
    """A re-export nothing reads from the package namespace is a second name
    for something its own module already offers."""
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert unread_exports(ecmkit.__all__, bench, tests) == []


def records_built_at_dataclass_cost(functions, module: str) -> list[str]:
    """Classes of `module` reachable from the return annotations of
    `functions`, through type arguments and the annotations of each class
    reached, that are neither tuples nor checked on construction: a record
    a query computes should be a named tuple, not a dataclass that sets
    every field through object.__setattr__."""
    todo = [get_type_hints(f).get("return") for f in functions]
    reached = set()
    while todo:
        hint = todo.pop()
        todo += get_args(hint)
        if isinstance(hint, type) and hint.__module__.partition(".")[0] == module and hint not in reached:
            reached.add(hint)
            todo += get_type_hints(hint).values()
    return sorted(c.__name__ for c in reached if not issubclass(c, tuple) and not hasattr(c, "__post_init__"))


def test_records_built_at_dataclass_cost_are_found():
    @dataclass(frozen=True)
    class Checked:
        size: int

        def __post_init__(self):
            if self.size < 0:
                raise ValueError("size must be >= 0")

    class Point(NamedTuple):
        x: int

    @dataclass(frozen=True)
    class Result:
        checked: Checked
        points: tuple[Point, ...]

    @dataclass(frozen=True)
    class Inner:
        value: int

    @dataclass(frozen=True)
    class Outer:
        inner: dict[str, Inner]

    def query() -> Result | None:
        pass

    def nested() -> list[Outer]:
        pass

    def plain() -> int:
        pass

    module = __name__.partition(".")[0]
    assert records_built_at_dataclass_cost([query, nested, plain], module) == ["Inner", "Outer", "Result"]


def test_the_records_public_functions_return_are_named_tuples_or_checked():
    """The record rule of the package docstring, over every public
    module-level function of every module (`__main__` runs the CLI when
    imported, and defines none)."""
    functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__main__":
            module = importlib.import_module(f"ecmkit.{path.stem}" if path.stem != "__init__" else "ecmkit")
            functions += [f for name, f in vars(module).items()
                          if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")]
    assert len(functions) > len(ecmkit.__all__)
    # _pairing.pattern_table returns a search table, not a record: a plain
    # class with methods and a step memo it fills, built once per kind set
    # and kept by the machine's CoreLayout
    assert records_built_at_dataclass_cost(functions, "ecmkit") == ["PatternTable"]


def records_keeping_values_unnamed(classes, docstring: str) -> list[str]:
    """Tuple subclasses among `classes` whose instances have a `__dict__`
    (a class below tuple without `__slots__`), so they can keep values
    beside their fields, and that `docstring` does not name in backquotes."""
    named = set(re.findall(r"`(\w+)`", docstring))
    return sorted(c.__name__ for c in classes if issubclass(c, tuple) and c.__dictoffset__ and c.__name__ not in named)


def test_records_keeping_values_unnamed_are_found():
    class Point(NamedTuple):
        x: int

    class Kept(Point):
        pass

    class Slotted(Point):
        __slots__ = ()

    class Named(Point):
        pass

    class Deeper(Slotted):
        pass

    @dataclass(frozen=True)
    class Plain:
        x: int

    docstring = "Only `Named` keeps values; `Point` and `Slotted` are tuples, Kept is not named."
    assert records_keeping_values_unnamed([Point, Kept, Slotted, Named, Deeper, Plain], docstring) == ["Deeper", "Kept"]


def test_only_the_records_the_package_docstring_names_keep_values():
    """A query record that keeps values derived from its fields holds them
    in an instance `__dict__`; the package docstring's record rule names
    each such record, so a new one is reviewed with the rule."""
    classes = [cls for module in package_modules() for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__]
    assert records_keeping_values_unnamed(classes, ecmkit.__doc__) == []
    kept = sorted(c.__name__ for c in classes if issubclass(c, tuple) and c.__dictoffset__)
    assert kept == ["ECMInput", "ECMPrediction"]


def package_modules() -> list:
    """Every module of the package but `__main__`, which runs the CLI when imported."""
    return [importlib.import_module(f"ecmkit.{path.stem}" if path.stem != "__init__" else "ecmkit")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"]


def fields_taking_a_string(examples, names: dict[str, str]) -> list[str]:
    """`Class.field` for each field annotated int, Fraction or bool of the
    example records' classes where "1" is not refused with a SchemaError
    naming the field: by its name in `names` (a file key the messages use),
    else by its own."""
    found = []
    for example in examples:
        hints = get_type_hints(type(example))
        for field in fields(example):
            if hints[field.name] not in (int, Fraction, bool):
                continue
            try:
                replace(example, **{field.name: "1"})
                message = ""
            except SchemaError as exc:
                message = str(exc)
            except TypeError:  # "1" compared with a number fails the check, unnamed
                message = ""
            if f"{names.get(field.name, field.name)} must be" not in message:
                found.append(f"{type(example).__name__}.{field.name}")
    return found


def test_fields_taking_a_string_are_found():
    @dataclass(frozen=True)
    class Record:
        n_items: int
        size: Fraction
        exact: Fraction
        on: bool
        label: str

        def __post_init__(self):
            require_number(self.n_items, "record: items")
            require_number(self.size, "record: size", exact=True)
            if self.exact < 0:
                raise SchemaError("exact must be >= 0")

    example = Record(1, Fraction(1), Fraction(1), True, "x")
    assert fields_taking_a_string([example], {"n_items": "items"}) == ["Record.exact", "Record.on"]


def test_every_checked_record_refuses_a_string_for_a_number_or_a_flag():
    """Each frozen dataclass with a __post_init__ checks its int, Fraction
    and bool fields itself, so a value built in Python is held to the rules
    a file is. The examples are one valid instance of each; the stream is a
    write stream, since a read stream refuses a true `nontemporal` for
    another reason."""
    machine = ecmkit.builtin_haswell()
    ddot = ecmkit.builtin_kernels()["ddot"]
    examples = [Stream("A", "write"), ddot.uops[0], ddot, machine.ports[0], machine.boundaries[0], machine.memory,
                machine.numa, machine, Measurement("k", {"L1": 1}), PenaltyConfig()]
    checked = {cls for module in package_modules() for cls in vars(module).values()
               if is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == module.__name__
               and cls.__dataclass_params__.frozen and "__post_init__" in vars(cls)}
    assert checked == {type(e) for e in examples}
    assert fields_taking_a_string(examples, {"n_domains": "domains", "cod_enabled": "cod"}) == []


def test_checked_records_form_no_message_for_a_valid_value():
    """A record's invariants name the record in a message only when they
    refuse a value: building valid records from strings that count how often
    they are shown, by repr or by format, shows none of them, and each
    refusal shows them in the message it always gave."""
    shown = []

    class Shown(str):
        def __repr__(self):
            shown.append("repr")
            return str.__repr__(self)

        def __format__(self, spec):
            shown.append("format")
            return str.__format__(self, spec)

    streams = (Stream(Shown("A"), "read"), Stream(Shown("B"), "write", nontemporal=True))
    KernelModel(Shown("k"), streams, 8, (UopGroup(2, "load", "base-index-offset"),), 2)
    CacheBoundary(Shown("L1L2"), 64)
    MemoryModel(Fraction(27), {(1, 0, Shown("0")): Fraction(32)})
    Measurement(Shown("k"), {Shown("L1"): 2, Shown("MEM"): Fraction(17, 2)})
    assert shown == []

    refusals = {
        "stream 'A': nontemporal must be a boolean, got 'no'": lambda: Stream(Shown("A"), "write", nontemporal="no"),
        "kernel 'k': element_bytes must be an integer, got '8'": lambda: KernelModel(Shown("k"), (), "8", ()),
        "kernel 'k': flops_per_iteration must be an integer, got 1.5":
            lambda: KernelModel(Shown("k"), (), 8, (), 1.5),
        "CacheBoundary L1L2: bytes_per_cycle must be >= 1": lambda: CacheBoundary(Shown("L1L2"), 0),
        "CacheBoundary L2L3: bytes_per_cycle must be an integer, got '64'": lambda: CacheBoundary(Shown("L2L3"), "64"),
        "memory: bandwidth for signature (1, 0, '0') must be > 0":
            lambda: MemoryModel(Fraction(27), {(1, 0, Shown("0")): 0}),
        "memory: bandwidth for signature (1, 0, 0) must be an integer or a Fraction, got 1.5":
            lambda: MemoryModel(Fraction(27), {(1, 0, 0): 1.5}),
        "measurement 'k': L1 must be > 0": lambda: Measurement(Shown("k"), {Shown("L1"): 0}),
        "measurement 'k': MEM must be an integer or a Fraction, got 2.5": lambda: Measurement(Shown("k"), {"MEM": 2.5}),
    }
    for message, build in refusals.items():
        with pytest.raises(SchemaError) as refused:
            build()
        assert str(refused.value) == message
    assert shown
