"""Loader fuzz: mutated machine, kernel and measurement files stay inside the
input contract. A loader returns a value or raises SchemaError; `cli.run`
returns 0, 1 or 2, raises nothing, prints no non-finite number, and on 2
prints one `error:` line and no output.

Each example mutates a seed file: type swaps, dropped and extra keys, NaN,
1e400, the least subnormal float, integers of 10^6 and more (and one longer
than int() converts), wrong and deep nesting, and bytes that are not UTF-8.
Machine files start from the built-in machine or from the same machine with
an empty bandwidth table, whose kernels all take the default bandwidth.
Kernel files run through `traffic` and `predict`, machine files through
`show-machine`, `predict` (also of `update`, which stores, without
`--precise`) and `scale`: the loaders cap the uop and core counts that set
what those commands cost.

A mutated machine file rarely loads, so the same commands also run on the
machine seeds with every value redrawn within what the loader accepts: port
capabilities, retire width, store weight, boundary widths, GHz, bandwidths
and derating from the least subnormal float to 1.7e308, and NUMA shapes up
to the core cap. Each of those machines loads and reaches the model, and
`test_redrawn_machine_file` requires a floor of examples that load, that
take the default bandwidth and that end in a number too large for a float.

The loaders read each object of a file once, by `_schema.fields`, and form
a message only on a fault, from the parts each enclosing key, list entry
and record puts in front. Their outcomes, each record's repr or refusal
message, are pinned by digest over such dicts and over every place of the
seed files set to a value of each JSON type, so a change to how a file is
read shows as a changed record or message.
"""

import contextlib
import hashlib
import io
import json
import warnings
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmkit import SchemaError, builtin_haswell, builtin_kernels, load_kernel, load_machine, read_measurements
from ecmkit import serialize_machine
from ecmkit.cli import run
from ecmkit.kernels import ADDRESSING_MODES, UOP_CLASSES, kernel_from_dict
from ecmkit.machine import MAX_CORES, PORT_CAPABILITIES, MemoryModel, machine_from_dict

from oracles import _places, _with
from test_cli import NON_FINITE, kernel_dict

MACHINE_SEED = serialize_machine(builtin_haswell())
# the built-in machine, and the same with no bandwidth table, so that every
# signature falls back to a (mutated) default bandwidth
MACHINE_SEEDS = [MACHINE_SEED, {**MACHINE_SEED, "memory": {**MACHINE_SEED["memory"], "table": []}}]
KERNEL_SEED = kernel_dict(builtin_kernels()["schoenauer_triad_opt"])
CSV_SEED = (resources.files("ecmkit.data") / "measurements_haswell.csv").read_text()

# JSON text a Python value cannot carry; written as a string, then swapped in
LITERALS = {
    "@nan": "NaN",
    "@inf": "1e400",
    "@long-int": "9" * 5000,
    "@deep": "[" * 100_000 + "]" * 100_000,
    "@near-limit": "[" * 900 + "]" * 900,
}
SWAPS = st.one_of(
    st.sampled_from(sorted(LITERALS)),
    st.sampled_from([None, True, False, 0, -1, 1.5, 64.0, 1e-300, 5e-324, 1.7e308, 10**306, "", "x", "false"]),
    st.sampled_from([[], {}, [1], {"k": 1}, [[]], {"name": "x"}]),
    st.integers(min_value=10**6, max_value=10**40),
)
CELLS = [
    "", "0", "-1", "2.5", " 2", "2.", ".5", "1/2", "0x10", "NaN", "inf", "1e400", "1e-5000", "1e2000000",
    "9" * 5000, "0." + "0" * 4999 + "1", "9" * 200_000, '"', 'a"b', "L9", "MEM", "foo", "ddot", "\x00",
]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# the commands test_mutated_machine_file runs, without the machine file
MACHINE_ARGVS = [
    ["show-machine"],
    ["predict", "-k", "ddot", "--precise"],
    ["predict", "-k", "update", "--format", "json"],
    ["scale", "-k", "ddot"],
]
# GHz, bandwidths and the derating: any positive float, the extremes often
POSITIVE = st.one_of(st.sampled_from([5e-324, 3e-320, 1e-300, 1.7e308]), st.floats(5e-324, 1.7e308))
# a boundary width divides a cache line or is a multiple of one
BOUNDARY_WIDTHS = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 64 * 10**6])
# retire width and store weight have no cap; the built-in weight is drawn
# most, then 10^9, which no retire cycle holds
RETIRE_WIDTHS = st.sampled_from([1, 2, 3, 4, 6, 8, 10**9])
STORE_WEIGHTS = st.sampled_from([2, 10**9, 1, 3, 10**6])


def mutate(tree, data):
    """`tree` with one change at a node that `data` picks."""
    if isinstance(tree, (dict, list)) and tree and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(tree) if isinstance(tree, dict) else range(len(tree))))
        copy = dict(tree) if isinstance(tree, dict) else list(tree)
        copy[key] = mutate(tree[key], data)
        return copy
    op = data.draw(st.sampled_from(["swap", "drop", "extra", "wrap", "unwrap", "empty"]))
    if op == "drop" and isinstance(tree, dict) and tree:
        key = data.draw(st.sampled_from(sorted(tree)))
        return {k: v for k, v in tree.items() if k != key}
    if op == "drop" and isinstance(tree, list) and tree:
        return tree[1:]
    if op == "extra" and isinstance(tree, dict):
        return {**tree, "extra": data.draw(SWAPS)}
    if op == "extra" and isinstance(tree, list):
        return tree + tree[-1:] + [data.draw(SWAPS)]
    if op == "wrap":
        return data.draw(st.sampled_from([[tree], {"value": tree}]))
    if op == "unwrap" and isinstance(tree, list) and tree:
        return tree[0]
    if op == "empty":
        return type(tree)() if isinstance(tree, (dict, list, str)) else None
    return data.draw(SWAPS)


def json_text(tree) -> str:
    """`tree` as JSON text, each LITERALS name swapped for its literal."""
    text = json.dumps(tree)
    for name, literal in LITERALS.items():
        text = text.replace(json.dumps(name), literal)
    return text


def mutated_json(seed, data) -> bytes:
    tree = seed
    for _ in range(data.draw(st.integers(1, 3))):
        tree = mutate(tree, data)
    return not_utf8(json_text(tree).encode(), data)


def mutated_csv(data) -> bytes:
    rows = [line.split(",") for line in CSV_SEED.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        op = data.draw(st.sampled_from(["cell", "cell", "cell", "drop", "duplicate", "extra column", "blank"]))
        if op == "cell":
            j = data.draw(st.integers(0, 2))
            rows[i] = rows[i][:j] + [data.draw(st.sampled_from(CELLS))] + rows[i][j + 1:]
        elif op == "drop":
            del rows[i]
        elif op == "duplicate":
            rows.insert(i, rows[i])
        elif op == "extra column":
            rows[i] = rows[i] + ["1"]
        else:
            rows.insert(i, [])
        if not rows:
            break
    return not_utf8("".join(",".join(row) + "\n" for row in rows).encode(), data)


def redrawn_machine(seed, data) -> dict:
    """`seed` with each value redrawn within what the loader accepts; the
    keys, port ids and bandwidth-table signatures stay."""
    domains = data.draw(st.integers(1, 64))
    capabilities = st.sets(st.sampled_from(sorted(PORT_CAPABILITIES)), min_size=1)
    return {
        **seed,
        "frequency_ghz": data.draw(POSITIVE),
        "retire_width": data.draw(RETIRE_WIDTHS),
        "store_uop_weight": data.draw(STORE_WEIGHTS),
        "ports": [
            {"id": port["id"], "capabilities": sorted(data.draw(st.just(port["capabilities"]) | capabilities))}
            for port in seed["ports"]
        ],
        "boundaries": [{**boundary, "bytes_per_cycle": data.draw(BOUNDARY_WIDTHS)} for boundary in seed["boundaries"]],
        "memory": {
            "default_bandwidth_gbs": data.draw(POSITIVE),
            "table": [{**row, "gbs": data.draw(POSITIVE)} for row in seed["memory"]["table"]],
            "noncod_derating": data.draw(POSITIVE),
        },
        "numa": {"domains": domains, "cores_per_domain": data.draw(st.integers(1, MAX_CORES // domains)),
                 "cod": data.draw(st.booleans())},
    }


def not_utf8(raw: bytes, data) -> bytes:
    """`raw`, or `raw` with a byte that breaks UTF-8 at a position `data` picks."""
    if not data.draw(st.integers(0, 9)) == 0:
        return raw
    at = data.draw(st.integers(0, len(raw)))
    return raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_schema_error(loader, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loader(path)
    except SchemaError:
        pass


def runs_within_contract(argv) -> list[str]:
    """The run's stderr lines, once its exit code and output keep the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv, out=out)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not NON_FINITE.search(out.getvalue()), out.getvalue()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    if code == 2:
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines


@SETTINGS
@given(st.data())
def test_mutated_machine_file(work, data):
    path = work / "machine.json"
    path.write_bytes(mutated_json(data.draw(st.sampled_from(MACHINE_SEEDS)), data))
    loads_or_schema_error(load_machine, path)
    runs_within_contract(["show-machine", "-m", str(path)])
    runs_within_contract(["predict", "-k", "ddot", "--precise", "-m", str(path)])
    runs_within_contract(["predict", "-k", "update", "--format", "json", "-m", str(path)])
    runs_within_contract(["scale", "-k", "ddot", "-m", str(path)])


@SETTINGS
@given(data=st.data())
def redrawn_machine_examples(work, reach, fallbacks, data):
    """Each example loads a redrawn machine and runs MACHINE_ARGVS on it;
    `reach` counts the examples that load, that take the default bandwidth
    (a lookup appends to `fallbacks`) and that end in a number too large for
    a float."""
    path = work / "redrawn-machine.json"
    path.write_text(json.dumps(redrawn_machine(data.draw(st.sampled_from(MACHINE_SEEDS)), data)))
    load_machine(path)
    reach["load"] += 1
    fallbacks.clear()
    errors = [line for argv in MACHINE_ARGVS for line in runs_within_contract([*argv, "-m", str(path)])]
    reach["default bandwidth"] += bool(fallbacks)
    reach["too large for a float"] += any(line.endswith("too large for a float") for line in errors)


def test_redrawn_machine_file(work, monkeypatch):
    """The redrawn examples keep their reach: a derandomized draw moves with
    the source text of the function that draws it, and with the literals of
    every local module loaded before it draws (Hypothesis mixes the short
    strings and most numbers of the package, the tests and the benchmark
    into its choices), so an edit anywhere that left most examples at one
    branch would fail here, not pass unseen."""
    reach, fallbacks = Counter(), []
    lookup = MemoryModel.lookup

    def counted_lookup(memory, signature):
        if tuple(signature) not in memory.bandwidth_table:
            fallbacks.append(signature)
        return lookup(memory, signature)

    monkeypatch.setattr(MemoryModel, "lookup", counted_lookup)
    redrawn_machine_examples(work, reach, fallbacks)
    # the draw gives 60 loads, 35 defaults and 32 too large; a floor allows
    # for a redraw, not for a collapse to a few examples
    assert reach["load"] >= 54 and reach["default bandwidth"] >= 10, reach
    assert reach["too large for a float"] >= 10, reach


@SETTINGS
@given(st.data())
def test_mutated_kernel_file(work, data):
    path = work / "kernel.json"
    path.write_bytes(mutated_json(KERNEL_SEED, data))
    loads_or_schema_error(load_kernel, path)
    runs_within_contract(["traffic", "-k", str(path)])
    runs_within_contract(["predict", "-k", str(path)])


@SETTINGS
@given(st.data())
def test_mutated_measurement_file(work, data):
    path = work / "measurements.csv"
    path.write_bytes(mutated_csv(data))
    loads_or_schema_error(read_measurements, path)
    runs_within_contract(["compare", "--measurements", str(path)])


# a kernel file's values: mostly accepted ones, and near misses that a type
# test or a record refuses
STREAM_ENTRIES = st.one_of(
    st.fixed_dictionaries({"array": st.sampled_from("ABCD"), "access": st.sampled_from(["read", "readwrite"])}),
    st.fixed_dictionaries({"array": st.sampled_from("EFG"), "access": st.just("write")},
                          optional={"nontemporal": st.booleans()}),
    st.fixed_dictionaries({"array": st.sampled_from("AE"), "access": st.sampled_from(["read", "write", "Read", 1])},
                          optional={"nontemporal": st.sampled_from([True, 0, "false"])}),
)
UOP_ENTRIES = st.one_of(
    st.fixed_dictionaries({"count": st.integers(1, 64), "class": st.sampled_from(["load", "store"]),
                           "addressing": st.sampled_from(ADDRESSING_MODES)}),
    st.fixed_dictionaries({"count": st.integers(1, 64), "class": st.sampled_from(["fma", "add", "mul", "lea"])}),
    st.fixed_dictionaries({"count": st.sampled_from([0, -1, 10_001, True, 2.0]), "class": st.sampled_from([*UOP_CLASSES, "div"])},
                          optional={"addressing": st.sampled_from([*ADDRESSING_MODES, None, "x"])}),
)
GENERATED_KERNELS = st.fixed_dictionaries(
    {"name": st.sampled_from(["k", "", "ké"]), "streams": st.lists(STREAM_ENTRIES, max_size=4),
     "element_bytes": st.sampled_from([8, 4, 64, 1, 3, 0]), "uops": st.lists(UOP_ENTRIES, max_size=5)},
    optional={"flops_per_iteration": st.sampled_from([0, 2, -1])},
)
READER_SOURCES = ["machine seed", "redrawn machine", "kernel seed", "built-in kernel", "generated kernel"]
# the machine seeds, and the built-in machine with no bandwidth table key,
# whose default the loader takes as given, not as a list it reads
READER_MACHINES = [*MACHINE_SEEDS, {**MACHINE_SEED, "memory": {"default_bandwidth_gbs": 27.1}}]
# values for every place of a seed file: one of each JSON type, unhashable ones too
PLACE_VALUES = [None, True, 0, 1.5, float("nan"), "x", [], {}, ["x"], {"k": 1}]
# the outcome lines of reader_examples' draw, those that load, and their digest
READER_EXAMPLES, READER_EXAMPLE_LOADS, READER_EXAMPLES_DIGEST = 643, 203, "3feb48215d4de2fd"
# the digest of the outcome lines of the 5 058 place variants
PLACE_DIGEST = "2ebff52055372383"


def outcome(tree, machine: bool) -> str:
    """The loader's outcome for `tree`: the record's repr, or the refusal."""
    try:
        return repr(machine_from_dict(tree) if machine else kernel_from_dict(tree))
    except SchemaError as exc:
        return f"SchemaError: {exc}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def reader_examples(outcomes, lines, data):
    """Each example draws a machine or kernel dict and mutates it 1-3 times.
    The dict and each mutation are read back from their JSON text and loaded;
    `lines` collects the outcomes and `outcomes` counts (source, loads) pairs."""
    source = data.draw(st.sampled_from(READER_SOURCES))
    if source == "machine seed":
        tree = data.draw(st.sampled_from(READER_MACHINES))
    elif source == "redrawn machine":
        tree = redrawn_machine(data.draw(st.sampled_from(MACHINE_SEEDS)), data)
    elif source == "built-in kernel":
        tree = kernel_dict(data.draw(st.sampled_from(sorted(builtin_kernels().values(), key=repr))))
    else:
        tree = KERNEL_SEED if source == "kernel seed" else data.draw(GENERATED_KERNELS)
    trees = [tree]
    for _ in range(data.draw(st.integers(1, 3))):
        trees.append(mutate(trees[-1], data))
    for tree in trees:
        try:
            tree = json.loads(json_text(tree))
        except (ValueError, RecursionError):  # no JSON value: the loader stops before reading an object
            outcomes[source, "not JSON"] += 1
            continue
        lines.append(outcome(tree, "machine" in source))
        outcomes[source, not lines[-1].startswith("SchemaError: ")] += 1


def test_the_loaders_keep_their_outcomes_on_mutated_files(monkeypatch):
    """The loaders' outcomes over valid files, the fuzz tests' mutations and
    generated values are those pinned, and each source reaches both outcomes.
    The digest holds under any string hash seed (a port lists its
    capabilities sorted). The draw moves with the source text of
    `reader_examples` and with the Hypothesis version; Hypothesis also draws
    literals of the local modules loaded, which tests run before this one
    and edits anywhere in the package or the tests would change, so the
    draw runs without them."""
    from hypothesis.internal.conjecture import providers  # internal: only this test breaks if it moves

    monkeypatch.setattr(providers, "_get_local_constants", providers.Constants)
    providers.CONSTANTS_CACHE.cache.clear()  # values cached with the local literals
    outcomes, lines = Counter(), []
    try:
        reader_examples(outcomes, lines)
    finally:
        providers.CONSTANTS_CACHE.cache.clear()
    # the draw gives 14 to 145 of each; a floor allows for a redraw, not for a collapse
    assert min(outcomes[source, loads] for source in READER_SOURCES for loads in (True, False)) >= 10, outcomes
    assert (len(lines), sum(not line.startswith("SchemaError: ") for line in lines)) == (READER_EXAMPLES, READER_EXAMPLE_LOADS)
    assert digest(lines) == READER_EXAMPLES_DIGEST


def test_the_loaders_keep_their_outcomes_at_every_place_of_a_seed():
    """The same, with each place of each seed file and built-in kernel set in
    turn to each of PLACE_VALUES, and with each key dropped."""
    seeds = [(tree, True) for tree in READER_MACHINES]
    seeds += [(kernel_dict(kernel), False) for kernel in builtin_kernels().values()]
    lines = []
    for seed, machine in seeds:
        for path, value in _places(seed):
            variants = [_with(seed, path, other) for other in PLACE_VALUES]
            variants += [_with(seed, (*path, key), delete=True) for key in value] if type(value) is dict else []
            lines += [outcome(variant, machine) for variant in variants]
    loads = sum(not line.startswith("SchemaError: ") for line in lines)
    assert (loads, len(lines) - loads) == (157, 4901)
    assert digest(lines) == PLACE_DIGEST
