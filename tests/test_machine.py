import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ecmkit
from ecmkit import _schema
from ecmkit import (
    Measurement, PenaltyConfig, SchemaError, UopGroup, builtin_haswell, builtin_kernels, ecm_input, format_ecm,
    load_machine, mem_cycles_per_cl, serialize_machine,
)
from ecmkit.errors import CapabilityError
from ecmkit.kernels import Stream
from ecmkit.machine import MAX_CORES, PORT_CAPABILITIES, CacheBoundary, MemoryModel, PortSpec, machine_from_dict

from oracles import key_fault_cases, type_fault_cases, unknown_key_first_cases

SRC = str(Path(ecmkit.__file__).resolve().parent.parent)


@pytest.fixture
def haswell():
    return builtin_haswell()


def test_builtin_reference_parameters(haswell):
    assert haswell.frequency_ghz == Fraction("2.3")
    assert haswell.retire_width == 4
    assert haswell.store_uop_weight == 2
    assert (haswell.cycles_per_cl("L1L2"), haswell.cycles_per_cl("L2L3")) == (1, 2)
    assert haswell.numa.n_domains == 2
    assert haswell.numa.cores_per_domain == 7
    assert haswell.numa.cod_enabled


def test_builtin_port_layout(haswell):
    assert haswell.ports_with("load-agu-full") == {2, 3}
    assert haswell.ports_with("agu-simple") == {7}
    assert haswell.ports_with("store-data") == {4}
    assert haswell.ports_with("fma") == {0, 1}
    assert haswell.ports_with("add") == {1}
    assert haswell.ports_with("mul") == {0, 1}
    assert haswell.ports_with("lea") == {1, 5}


@pytest.mark.parametrize(
    "signature,gbs",
    [
        ((2, 0, 0), "32.4"),
        ((1, 0, 0), "32.4"),
        ((0, 1, 0), "23.6"),
        ((1, 1, 0), "26.3"),
        ((2, 1, 0), "27.1"),
        ((3, 1, 0), "27.8"),
    ],
)
def test_builtin_bandwidth_table(haswell, signature, gbs):
    assert haswell.memory.lookup(signature) == Fraction(gbs)


def test_lookup_falls_back_to_default(haswell):
    assert haswell.memory.lookup((9, 9, 9)) == haswell.memory.default_bandwidth_gbs


def test_all_bandwidths_positive(haswell):
    assert haswell.memory.default_bandwidth_gbs > 0
    assert all(v > 0 for v in haswell.memory.bandwidth_table.values())


def test_noncod_bandwidth_is_scaled_per_domain_value(haswell):
    per_domain = haswell.bandwidth((2, 0, 0), "cod")
    assert haswell.bandwidth((2, 0, 0), "noncod") == 2 * per_domain


def test_noncod_derating_from_file(haswell, tmp_path):
    data = serialize_machine(haswell)
    data["memory"]["noncod_derating"] = 0.9
    path = tmp_path / "derated.json"
    path.write_text(json.dumps(data))
    machine = load_machine(path)
    per_domain = machine.bandwidth((2, 0, 0), "cod")
    assert machine.bandwidth((2, 0, 0), "noncod") == 2 * per_domain * Fraction("0.9")


def test_roundtrip_serialize_load(haswell, tmp_path):
    path = tmp_path / "haswell.json"
    path.write_text(json.dumps(serialize_machine(haswell)))
    reloaded = load_machine(path)
    assert reloaded == haswell
    # and once more through the serializer to be sure nothing drifts
    assert serialize_machine(reloaded) == serialize_machine(haswell)


def test_loading_a_machine_file_reads_each_object_once(haswell, tmp_path):
    """A work count: `_schema.fields` reads the file, each port, boundary
    and bandwidth-table row, the memory and the NUMA object once each."""
    path = tmp_path / "haswell.json"
    path.write_text(json.dumps(serialize_machine(haswell)))
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _schema.fields.__code__:
            calls.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        loaded = load_machine(path)
    finally:
        sys.setprofile(previous)
    assert loaded == haswell
    assert len(calls) == 3 + len(haswell.ports) + len(haswell.boundaries) + len(haswell.memory.bandwidth_table) == 22


# a child run: is the repr of each machine's ports the same after a pickle
# round trip, a copy and a deep copy? Port 8 holds every capability.
COPIED_REPR = """
import copy, pickle
from dataclasses import replace
from ecmkit import builtin_haswell
from ecmkit.machine import PORT_CAPABILITIES, PortSpec
haswell = builtin_haswell()
wide = replace(haswell, ports=haswell.ports + (PortSpec(8, PORT_CAPABILITIES),))
copiers = (lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy)
print(all(repr(copier(m)) == repr(m) for m in (haswell, wide) for copier in copiers))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "3", "7"])
def test_a_copied_machine_shows_the_repr_of_its_original(hash_seed):
    """A port's capabilities are a frozenset, whose iteration order depends
    on how it was built and on the string hash seed; a copied or unpickled
    port must still show them in the original's order. The seed is fixed
    per child run; under seed 3, a frozenset rebuilt from the iteration
    order of Haswell's port 1 iterates in another order."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", COPIED_REPR], capture_output=True, text=True, env=env, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "True\n", "")


def test_a_machine_file_shows_one_repr_under_any_hash_seed(haswell, tmp_path):
    """A port lists its capabilities sorted, so one machine file loaded in
    child runs with different string hash seeds shows one repr, this
    process's too; the frozenset's own order differs between seeds 1 and 2
    for Haswell's port 0. Port 8 holds every capability."""
    wide = replace(haswell, ports=haswell.ports + (PortSpec(8, PORT_CAPABILITIES),))
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(serialize_machine(wide)))
    script = "import sys\nfrom ecmkit import load_machine\nprint(repr(load_machine(sys.argv[1])))"
    shown = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert (child.returncode, child.stderr) == (0, "")
        shown.append(child.stdout)
    assert shown == [repr(load_machine(path)) + "\n"] * 2
    assert "PortSpec(id=0, capabilities=frozenset({'branch', 'fma', 'mul'}))" in shown[0]


def test_the_bandwidth_table_is_a_read_only_copy(haswell):
    """The model memos key on what a query adds to the machine, so the
    machine must not change: its table refuses stores, and a change to the
    caller's dict after construction reaches neither the table nor an
    answer. Equality and serialization read the table as before."""
    table = {(1, 0, 0): Fraction("32.4"), (0, 1, 0): Fraction("23.6")}
    memory = MemoryModel(default_bandwidth_gbs=Fraction("27.1"), bandwidth_table=table)
    machine = replace(haswell, memory=memory)
    before = serialize_machine(machine)
    with pytest.raises(TypeError):
        machine.memory.bandwidth_table[(1, 0, 0)] = Fraction(1)
    with pytest.raises(TypeError):
        del haswell.memory.bandwidth_table[(2, 0, 0)]
    table[(1, 0, 0)] = Fraction(1)
    table[(9, 9, 9)] = Fraction(1)
    assert dict(machine.memory.bandwidth_table) == {(1, 0, 0): Fraction("32.4"), (0, 1, 0): Fraction("23.6")}
    assert machine.bandwidth((1, 0, 0), "cod") == Fraction("32.4")
    assert machine.bandwidth((9, 9, 9), "cod") == Fraction("27.1")
    assert serialize_machine(machine) == before
    assert machine == replace(haswell, memory=replace(memory, bandwidth_table=dict(machine.memory.bandwidth_table)))
    assert machine != haswell and builtin_haswell() == haswell
    assert machine_from_dict(json.loads(json.dumps(before))) == machine


def test_a_machine_keeps_no_list_its_caller_can_change(haswell):
    """The memos key on what a query adds to the machine, so the machine
    must not change: ports and boundaries given as lists are kept as tuple
    copies, and a later change to the caller's lists reaches neither the
    machine nor an answer."""
    ddot = builtin_kernels()["ddot"]
    ports, boundaries = list(haswell.ports), list(haswell.boundaries)
    machine = replace(haswell, ports=ports, boundaries=boundaries)
    assert format_ecm(ecm_input(ddot, machine)) == "{1 || 2 | 2 | 4 | 9.1}"
    ports[:] = [p for p in ports if "fma" not in p.capabilities]
    boundaries.reverse()
    with pytest.raises(CapabilityError):
        ecm_input(ddot, replace(haswell, ports=ports))
    assert machine == haswell and type(machine.ports) is tuple and type(machine.boundaries) is tuple
    assert format_ecm(ecm_input(ddot, replace(machine))) == format_ecm(ecm_input(ddot, machine)) == "{1 || 2 | 2 | 4 | 9.1}"


def test_serialize_refuses_a_number_a_file_cannot_hold(haswell):
    """A Fraction with no exact decimal form, such as 7/3 GHz, would be
    written as a rounded float and reload unequal, so serialize_machine
    names its field instead; the built-in machine round-trips exactly."""
    assert machine_from_dict(json.loads(json.dumps(serialize_machine(haswell)))) == haswell
    cases = [
        (replace(haswell, frequency_ghz=Fraction(7, 3)), "frequency_ghz: Fraction(7, 3)"),
        (replace(haswell, memory=replace(haswell.memory, default_bandwidth_gbs=Fraction(1, 3))),
         "memory: default_bandwidth_gbs: Fraction(1, 3)"),
        (replace(haswell, memory=replace(haswell.memory, bandwidth_table={(1, 0, 0): Fraction(10**400 + 1, 2)})),
         "memory: bandwidth for signature (1, 0, 0): Fraction(1000...0000000001, 2)"),
        (replace(haswell, memory=replace(haswell.memory, noncod_derating=Fraction(2, 3))),
         "memory: noncod_derating: Fraction(2, 3)"),
    ]
    for machine, message in cases:
        with pytest.raises(ValueError) as raised:
            serialize_machine(machine)
        assert str(raised.value).startswith(message)
        assert str(raised.value).endswith(" does not read back exactly from a machine file")
    exact = replace(haswell, frequency_ghz=Fraction(5, 2), memory=replace(haswell.memory, noncod_derating=Fraction(9, 10)))
    assert machine_from_dict(json.loads(json.dumps(serialize_machine(exact)))) == exact


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_machine(tmp_path / "nope.json")


def test_zero_byte_boundary_rejected(haswell, tmp_path):
    data = serialize_machine(haswell)
    data["boundaries"][0]["bytes_per_cycle"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="CacheBoundary"):
        load_machine(path)


def test_unknown_key_rejected(haswell, tmp_path):
    data = serialize_machine(haswell)
    data["turbo"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="turbo"):
        load_machine(path)


def test_missing_table_uses_default_everywhere(haswell):
    data = serialize_machine(haswell)
    data["memory"] = {"default_bandwidth_gbs": 27.1}
    machine = machine_from_dict(data)
    for signature in [(0, 0, 0), (2, 0, 0), (5, 5, 5)]:
        assert machine.memory.lookup(signature) == Fraction("27.1")


def test_boundary_width_must_tile_cachelines(haswell):
    with pytest.raises(SchemaError):
        CacheBoundary("L1L2", 48)
    wide = replace(haswell, boundaries=(CacheBoundary("L1L2", 128), CacheBoundary("L2L3", 32)))
    assert wide.cycles_per_cl("L1L2") == Fraction(1, 2)


def test_duplicate_boundary_rejected(haswell):
    data = serialize_machine(haswell)
    data["boundaries"] = [data["boundaries"][0], data["boundaries"][0]]
    with pytest.raises(SchemaError, match="boundaries"):
        machine_from_dict(data)


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(SchemaError):
        MemoryModel(default_bandwidth_gbs=Fraction(0))
    with pytest.raises(SchemaError):
        MemoryModel(default_bandwidth_gbs=Fraction(1), bandwidth_table={(1, 0, 0): Fraction(-1)})


def test_duplicate_port_id_rejected(haswell):
    data = serialize_machine(haswell)
    data["ports"][1]["id"] = 0
    with pytest.raises(SchemaError, match="unique"):
        machine_from_dict(data)


def test_unknown_capability_rejected(haswell):
    data = serialize_machine(haswell)
    data["ports"][0]["capabilities"] = ["teleport"]
    with pytest.raises(SchemaError, match="teleport"):
        machine_from_dict(data)


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        (None, "retire_width", 0, "retire_width must be >= 1"),
        ("numa", "domains", 0, "numa: domains must be >= 1"),
        ("memory", "default_bandwidth_gbs", 0, "memory: default_bandwidth_gbs must be > 0"),
        (None, "frequency_ghz", 0, "frequency_ghz must be > 0"),
        (None, "store_uop_weight", 0, "store_uop_weight must be >= 1"),
        ("memory", "noncod_derating", 0, "memory: noncod_derating must be > 0"),
        ("numa", "cores_per_domain", 0, "numa: cores_per_domain must be >= 1"),
        ("ports", 0, {"id": -1, "capabilities": ["fma"]}, "ports[0]: port id must be non-negative, got -1"),
        ("ports", 0, {"id": 0, "capabilities": []}, "ports[0]: port 0: capabilities must be non-empty"),
        ("boundaries", 0, {"name": "L3", "bytes_per_cycle": 64},
         "boundaries[0]: CacheBoundary: name must be one of ('L1L2', 'L2L3'), got 'L3'"),
        ("memory", "table", [{"loads": 1, "stores": 0, "nt_stores": 0, "gbs": 30}] * 2,
         "memory: table[1]: duplicate signature (1, 0, 0)"),
    ],
)
def test_a_dataclass_invariant_error_names_the_file(haswell, tmp_path, section, key, value, message):
    data = serialize_machine(haswell)
    (data[section] if section else data)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError) as caught:
        load_machine(path)
    assert str(caught.value) == f"{path}: {message}"


def test_a_fault_in_an_object_is_reported_before_a_later_missing_key(haswell):
    """The reader reads the file depth first in spec order, as a kernel
    file: a fault inside `memory` comes before `numa`, which it never reaches."""
    data = serialize_machine(haswell)
    del data["numa"]
    data["memory"]["default_bandwidth_gbs"] = "x"
    with pytest.raises(SchemaError) as caught:
        machine_from_dict(data, "F")
    assert str(caught.value) == "F: memory: default_bandwidth_gbs: expected a finite number, got 'x'"


def test_a_fault_in_the_file_is_reported_before_a_duplicate_signature(haswell):
    """The table's signatures are checked only once the whole file reads."""
    data = serialize_machine(haswell)
    data["memory"]["table"].append(data["memory"]["table"][0])
    data["numa"]["cod"] = "yes"
    with pytest.raises(SchemaError) as caught:
        machine_from_dict(data, "F")
    assert str(caught.value) == "F: numa: cod: expected a boolean, got 'yes'"
    data["numa"]["cod"] = True
    with pytest.raises(SchemaError) as caught:
        machine_from_dict(data, "F")
    assert str(caught.value) == "F: memory: table[9]: duplicate signature (0, 0, 1)"


def test_more_cores_than_the_cap_rejected(haswell):
    data = serialize_machine(haswell)
    data["numa"] = {"domains": 2, "cores_per_domain": MAX_CORES // 2, "cod": True}
    assert machine_from_dict(data).numa.total_cores == MAX_CORES
    data["numa"]["domains"] = 3
    with pytest.raises(SchemaError, match=f"numa: domains x cores_per_domain is {3 * MAX_CORES // 2}, more than {MAX_CORES}"):
        machine_from_dict(data)


DDOT = builtin_kernels()["ddot"]


@pytest.mark.parametrize(
    "field,build",
    [
        ("frequency_ghz", lambda h: replace(h, frequency_ghz=2.3)),
        ("frequency_ghz", lambda h: replace(h, frequency_ghz="2.3")),
        ("frequency_ghz", lambda h: replace(h, frequency_ghz=True)),
        ("retire_width", lambda h: replace(h, retire_width=4.0)),
        ("retire_width", lambda h: replace(h, retire_width=True)),
        ("retire_width", lambda h: replace(h, retire_width=Fraction(4))),
        ("store_uop_weight", lambda h: replace(h, store_uop_weight=2.0)),
        ("memory: default_bandwidth_gbs", lambda h: replace(h.memory, default_bandwidth_gbs=27.1)),
        ("memory: bandwidth for signature (1, 0, 0)", lambda h: replace(h.memory, bandwidth_table={(1, 0, 0): 32.4})),
        ("memory: noncod_derating", lambda h: replace(h.memory, noncod_derating=0.9)),
        ("numa: domains", lambda h: replace(h.numa, n_domains=2.0)),
        ("numa: cores_per_domain", lambda h: replace(h.numa, cores_per_domain=True)),
        ("CacheBoundary L1L2: bytes_per_cycle", lambda h: CacheBoundary("L1L2", 64.0)),
        ("port id", lambda h: PortSpec(2.0, frozenset({"fma"}))),
        ("kernel 'ddot': element_bytes", lambda h: replace(DDOT, element_bytes=8.0)),
        ("kernel 'ddot': flops_per_iteration", lambda h: replace(DDOT, flops_per_iteration=2.0)),
        ("uop group: count", lambda h: UopGroup(2.0, "fma")),
        ("uop group: count", lambda h: UopGroup(True, "fma")),
        ("PenaltyConfig: cycles_per_load_stream_per_level", lambda h: PenaltyConfig(0.5)),
        ("PenaltyConfig: cycles_per_load_stream_per_level", lambda h: PenaltyConfig("1e3000000")),
        ("measurement 'k': L1", lambda h: Measurement("k", {"L1": 2.5})),
        ("bandwidth_gbs", lambda h: mem_cycles_per_cl("32.4", Fraction("2.3"))),
    ],
)
def test_records_refuse_numbers_the_model_cannot_compute_with(haswell, field, build):
    """A float, bool or string where the model needs an int, or for GHz,
    GB/s and the derating an int or Fraction, fails on construction with the
    field's name, not later inside a query or silently as 1."""
    with pytest.raises(SchemaError) as caught:
        build(haswell)
    assert str(caught.value).startswith(f"{field} must be an integer")


@pytest.mark.parametrize(
    "field,build",
    [
        ("numa: cod", lambda h: replace(h.numa, cod_enabled="false")),
        ("stream 'A': nontemporal", lambda h: Stream("A", "write", nontemporal="false")),
    ],
)
def test_records_refuse_a_flag_that_is_not_a_bool(haswell, field, build):
    """A string such as "false" is true to Python; a record refuses it on
    construction rather than run in COD mode or with non-temporal stores."""
    with pytest.raises(SchemaError) as caught:
        build(haswell)
    assert str(caught.value).startswith(f"{field} must be a boolean")


# what each place of a machine file holds, as the loader's messages name it;
# None where the reader takes any value for a record to check
MACHINE_FILE_KINDS = {
    "": "an object",
    "name": "a string",
    "frequency_ghz": "a finite number",
    "retire_width": "an integer",
    "store_uop_weight": "an integer",
    "ports": "a list",
    "ports[]": "an object",
    "ports[]: id": "an integer",
    "ports[]: capabilities": "a list",
    "ports[]: capabilities[]": "a string",
    "boundaries": "a list",
    "boundaries[]": "an object",
    "boundaries[]: name": None,
    "boundaries[]: bytes_per_cycle": "an integer",
    "memory": "an object",
    "memory: default_bandwidth_gbs": "a finite number",
    "memory: table": "a list",
    "memory: table[]": "an object",
    "memory: table[]: loads": "an integer",
    "memory: table[]: stores": "an integer",
    "memory: table[]: nt_stores": "an integer",
    "memory: table[]: gbs": "a finite number",
    "memory: noncod_derating": "a finite number",
    "numa": "an object",
    "numa: domains": "an integer",
    "numa: cores_per_domain": "an integer",
    "numa: cod": "a boolean",
}


def test_an_unknown_key_is_the_first_fault_of_its_object(haswell):
    """An object of a machine file with an unknown key and another fault
    (its first key dropped, or a wrong type below it) reports the unknown
    key: the reader looks for one only after a fault, yet reports it first."""
    data = serialize_machine(replace(haswell, memory=replace(haswell.memory, noncod_derating=Fraction("0.9"))))
    cases = unknown_key_first_cases(data, MACHINE_FILE_KINDS)
    for faulty, message in cases:
        with pytest.raises(SchemaError) as caught:
            machine_from_dict(faulty, "F")
        assert str(caught.value) == f"F: {message}"
    assert len(cases) == 22 + 220  # 22 objects without their first key, 220 (object, typed place below it) pairs


def test_every_place_of_a_machine_file_is_named_in_its_message(haswell):
    """A value of the wrong type at each place of the built-in machine's
    file (with a derating, so every key is written), and a missing and an
    unknown key in each of its objects, each give one message naming the
    place, down to a port's capability."""
    data = serialize_machine(replace(haswell, memory=replace(haswell.memory, noncod_derating=Fraction("0.9"))))
    cases = type_fault_cases(data, MACHINE_FILE_KINDS) + key_fault_cases(data)
    messages = []
    for faulty, message in cases:
        with pytest.raises(SchemaError) as caught:
            machine_from_dict(faulty, "F")
        messages.append(str(caught.value))
    assert messages == [f"F: {message}" for _, message in cases]
    # 102 typed places; two cases for each of 22 objects: the file, 8 ports,
    # 2 boundaries, the memory, 9 table rows and the NUMA layout
    assert len(cases) == 102 + 2 * 22
    for message in ("F: ports[3]: capabilities[0]: expected a string, got 5",
                    "F: memory: table[2]: gbs: expected a finite number, got []",
                    "F: numa: cod: expected a boolean, got 0",
                    "F: boundaries: expected a list, got {}",
                    "F: memory: expected an object, got []",
                    "F: expected an object, got []",
                    "F: ports[7]: missing key(s) ['id']",
                    "F: memory: table[8]: unknown key(s) ['surplus']"):
        assert message in messages
