import json
import random
import warnings
from dataclasses import replace

import pytest

from ecmkit import (
    SchemaError,
    bandwidth_signature,
    builtin_kernels,
    load_kernel,
    stream_counts,
    stream_signature,
    traffic,
    with_nt_stores,
)
from ecmkit.kernels import (
    MAX_UOPS_PER_LINE, KernelModel, Stream, UopGroup, consistency_warnings, kernel_from_dict, load_streams_with_rfo,
)

from oracles import key_fault_cases, type_fault_cases, unknown_key_first_cases

ALL_BUILTINS = (
    "ddot",
    "load",
    "store",
    "update",
    "copy",
    "stream_triad",
    "schoenauer_triad",
    "schoenauer_triad_opt",
    "stream_triad_nt",
    "schoenauer_triad_nt",
)


def test_builtin_set_complete():
    assert set(builtin_kernels()) == set(ALL_BUILTINS)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_validate_without_warnings(name):
    kernel = builtin_kernels()[name]
    assert consistency_warnings(kernel) == []


def test_kernels_of_other_element_sizes_are_not_checked():
    """ddot with one load uop a cache line instead of the four its two read
    streams imply: a mismatch at 8 bytes, unchecked at 4."""
    kernel = replace(builtin_kernels()["ddot"], uops=(UopGroup(1, "load", "base-index-offset"), UopGroup(2, "fma")))
    assert consistency_warnings(kernel) == ["kernel 'ddot': 1 load uops per cache line, but streams imply 4"]
    assert consistency_warnings(replace(kernel, element_bytes=4)) == []


# expected (explicit loads, RFO streams, write streams) per kernel
STREAM_COLUMNS = {
    "ddot": (2, 0, 0),
    "load": (1, 0, 0),
    "store": (0, 1, 1),
    "update": (1, 0, 1),
    "copy": (1, 1, 1),
    "stream_triad": (2, 1, 1),
    "schoenauer_triad": (3, 1, 1),
}


@pytest.mark.parametrize("name,expected", sorted(STREAM_COLUMNS.items()))
def test_stream_columns_recomputed(name, expected):
    counts = stream_counts(builtin_kernels()[name])
    assert (counts.explicit_loads, counts.rfo_streams, counts.write_streams) == expected


@pytest.mark.parametrize(
    "name,expected",
    [
        ("ddot", (2, 0, 0)),
        ("copy", (1, 1, 0)),
        ("update", (1, 1, 0)),
        ("schoenauer_triad", (3, 1, 0)),
        ("stream_triad_nt", (2, 0, 1)),
    ],
)
def test_stream_signature(name, expected):
    assert stream_signature(builtin_kernels()[name]) == expected


def test_stream_signature_empty_kernel():
    kernel = KernelModel("noop", (), 8, (UopGroup(1, "add"),))
    assert stream_signature(kernel) == (0, 0, 0)


def test_bandwidth_signature_groups_readmodifywrite_with_stores():
    kernels = builtin_kernels()
    assert bandwidth_signature(kernels["update"]) == (0, 1, 0)
    assert bandwidth_signature(kernels["store"]) == (0, 1, 0)
    assert bandwidth_signature(kernels["copy"]) == (1, 1, 0)
    assert bandwidth_signature(kernels["stream_triad_nt"]) == (2, 0, 1)


def test_signatures_invariant_under_stream_order():
    rng = random.Random(7)
    for name, kernel in builtin_kernels().items():
        streams = list(kernel.streams)
        for _ in range(5):
            rng.shuffle(streams)
            shuffled = KernelModel(name, tuple(streams), kernel.element_bytes, kernel.uops)
            assert stream_signature(shuffled) == stream_signature(kernel)
            assert bandwidth_signature(shuffled) == bandwidth_signature(kernel)


def test_nt_flag_only_on_writes():
    with pytest.raises(SchemaError, match="nontemporal"):
        Stream("A", "read", nontemporal=True)


def test_duplicate_array_names_rejected():
    with pytest.raises(SchemaError, match="unique"):
        KernelModel("bad", (Stream("A", "read"), Stream("A", "write")), 8, ())


def test_with_nt_stores_toggles_only_writes():
    triad = builtin_kernels()["stream_triad"]
    nt = with_nt_stores(triad)
    assert [s.nontemporal for s in nt.streams] == [False, False, True]
    back = with_nt_stores(nt, nontemporal=False)
    assert back == triad


def stream_figures(kernel):
    return (
        traffic(kernel),
        bandwidth_signature(kernel),
        stream_signature(kernel),
        stream_counts(kernel),
        load_streams_with_rfo(kernel),
    )


def rebuilt(kernel):
    """An equal kernel that has computed nothing yet."""
    return KernelModel(kernel.name, kernel.streams, kernel.element_bytes, kernel.uops, kernel.flops_per_iteration)


def test_stream_figures_follow_new_streams_after_the_tally_is_cached():
    triad = builtin_kernels()["stream_triad"]
    stream_figures(triad)  # fills the tally of this object
    variants = [
        replace(triad, streams=(Stream("B", "read"), Stream("A", "readwrite"))),
        replace(triad, streams=triad.streams[:1]),
        with_nt_stores(triad),
        with_nt_stores(with_nt_stores(triad), nontemporal=False),
    ]
    for variant in variants:
        assert stream_figures(variant) == stream_figures(rebuilt(variant))
    assert bandwidth_signature(variants[0]) == (1, 1, 0)
    assert traffic(variants[2]).cls_l3mem == 3
    assert stream_signature(variants[2]) == (2, 0, 1)


def test_cached_tally_takes_no_part_in_equality_hash_or_repr():
    for kernel in builtin_kernels().values():
        fresh = rebuilt(kernel)
        stream_figures(kernel)
        assert "_tally" in vars(kernel) and "_tally" not in vars(fresh)
        assert kernel == fresh and hash(kernel) == hash(fresh) and repr(kernel) == repr(fresh)
        assert "tally" not in repr(kernel)


DDOT_FILE = {
    "name": "ddot",
    "element_bytes": 8,
    "streams": [{"array": "A", "access": "read"}, {"array": "B", "access": "read"}],
    "uops": [
        {"count": 4, "class": "load", "addressing": "base-index-offset"},
        {"count": 2, "class": "fma"},
    ],
    "flops_per_iteration": 2,
}


def test_load_kernel_matches_builtin(tmp_path):
    path = tmp_path / "ddot.json"
    path.write_text(json.dumps(DDOT_FILE))
    assert load_kernel(path) == builtin_kernels()["ddot"]


def test_load_kernel_nt_read_rejected(tmp_path):
    data = dict(DDOT_FILE, streams=[{"array": "A", "access": "read", "nontemporal": True}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="'A'"):
        load_kernel(path)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_load_kernel_nontemporal_must_be_a_boolean(tmp_path, flag):
    data = dict(DDOT_FILE, streams=[{"array": "A", "access": "write", "nontemporal": flag}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="nontemporal: expected a boolean"):
        load_kernel(path)


def test_load_kernel_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(DDOT_FILE, body="s += A[i]*B[i]")))
    with pytest.raises(SchemaError, match="body"):
        load_kernel(path)


def test_inconsistent_uops_load_without_warning_and_are_listed(tmp_path):
    """load_kernel warns nothing; consistency_warnings names the mismatch."""
    data = dict(
        DDOT_FILE,
        uops=[{"count": 3, "class": "load", "addressing": "base-index-offset"}, {"count": 2, "class": "fma"}],
    )
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = load_kernel(path)
    assert kernel.uop_count("load") == 3
    assert consistency_warnings(kernel) == ["kernel 'ddot': 3 load uops per cache line, but streams imply 4"]


def test_addressing_required_for_memory_uops():
    with pytest.raises(SchemaError, match="addressing"):
        UopGroup(2, "load")
    with pytest.raises(SchemaError, match="addressing"):
        UopGroup(2, "fma", addressing="offset-only")


def test_element_bytes_must_divide_cacheline():
    with pytest.raises(SchemaError, match="element_bytes"):
        KernelModel("bad", (), 10, ())


@pytest.mark.parametrize(
    "change,message",
    [
        ({"element_bytes": 3}, "kernel 'ddot': element_bytes must divide 64"),
        ({"streams": [{"array": "A", "access": "append"}]}, "streams[0]: stream 'A': access must be one of"),
        ({"uops": [{"count": 0, "class": "fma"}]}, "uops[0]: uop group: count must be >= 1, got 0"),
        ({"uops": [{"count": 1, "class": "div"}]}, "uops[0]: uop group: class must be one of"),
    ],
)
def test_a_dataclass_invariant_error_names_the_file(tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(DDOT_FILE, **change)))
    with pytest.raises(SchemaError) as caught:
        load_kernel(path)
    assert str(caught.value).startswith(f"{path}: {message}")


def test_more_uops_per_line_than_the_cap_rejected():
    uops = (UopGroup(MAX_UOPS_PER_LINE // 2, "load", "base-index-offset"), UopGroup(MAX_UOPS_PER_LINE // 2, "fma"))
    assert KernelModel("big", (), 8, uops).uop_count("fma") == MAX_UOPS_PER_LINE // 2
    with pytest.raises(SchemaError, match=f"kernel 'bigger': {MAX_UOPS_PER_LINE + 1} uops per cache line, more than"):
        KernelModel("bigger", (), 8, uops + (UopGroup(1, "add"),))


def test_a_kernel_keeps_no_list_its_caller_can_change():
    """Streams and uop groups given as lists are kept as tuple copies, so
    the uop cap, the stream tally and equality hold after the caller's
    lists change."""
    streams, uops = [Stream("A", "read")], [UopGroup(2, "load", "base-index-offset"), UopGroup(2, "add")]
    kernel = KernelModel("k", streams, 8, uops)
    streams.append(Stream("B", "write"))
    uops.append(UopGroup(MAX_UOPS_PER_LINE, "fma"))
    assert type(kernel.streams) is tuple and type(kernel.uops) is tuple
    assert sum(g.count for g in kernel.uops) == 4 and stream_signature(kernel) == (1, 0, 0)
    assert kernel == KernelModel("k", (Stream("A", "read"),), 8, (UopGroup(2, "load", "base-index-offset"), UopGroup(2, "add")))
    assert replace(kernel) == kernel


# the file of the built-in schoenauer_triad_opt, every key written
TRIAD_OPT_FILE = {
    "name": "schoenauer_triad_opt",
    "element_bytes": 8,
    "streams": [
        {"array": "B", "access": "read", "nontemporal": False},
        {"array": "C", "access": "read", "nontemporal": False},
        {"array": "D", "access": "read", "nontemporal": False},
        {"array": "A", "access": "write", "nontemporal": False},
    ],
    "uops": [
        {"count": 6, "class": "load", "addressing": "base-index-offset"},
        {"count": 2, "class": "store", "addressing": "offset-only"},
        {"count": 1, "class": "lea"},
        {"count": 2, "class": "fma"},
    ],
    "flops_per_iteration": 2,
}

# what each place of a kernel file holds, as the loader's messages name it;
# None where the reader takes any value for a record to check
KERNEL_FILE_KINDS = {
    "": "an object",
    "name": "a string",
    "element_bytes": "an integer",
    "streams": "a list",
    "streams[]": "an object",
    "streams[]: array": "a string",
    "streams[]: access": None,
    "streams[]: nontemporal": "a boolean",
    "uops": "a list",
    "uops[]": "an object",
    "uops[]: count": "an integer",
    "uops[]: class": None,
    "uops[]: addressing": None,
    "flops_per_iteration": "an integer",
}


def test_an_unknown_key_is_the_first_fault_of_its_object():
    """An object of a kernel file with an unknown key and another fault
    (its first key dropped, or a wrong type below it) reports the unknown
    key: the reader looks for one only after a fault, yet reports it first."""
    cases = unknown_key_first_cases(TRIAD_OPT_FILE, KERNEL_FILE_KINDS)
    for faulty, message in cases:
        with pytest.raises(SchemaError) as caught:
            kernel_from_dict(faulty, "F")
        assert str(caught.value) == f"F: {message}"
    assert len(cases) == 9 + 37  # 9 objects without their first key, 37 (object, typed place below it) pairs


def test_every_place_of_a_kernel_file_is_named_in_its_message():
    """A value of the wrong type at each place of a built-in kernel's file,
    and a missing and an unknown key in each of its objects, each give one
    message naming the place."""
    assert kernel_from_dict(TRIAD_OPT_FILE) == builtin_kernels()["schoenauer_triad_opt"]
    cases = type_fault_cases(TRIAD_OPT_FILE, KERNEL_FILE_KINDS) + key_fault_cases(TRIAD_OPT_FILE)
    messages = []
    for faulty, message in cases:
        with pytest.raises(SchemaError) as caught:
            kernel_from_dict(faulty, "F")
        messages.append(str(caught.value))
    assert messages == [f"F: {message}" for _, message in cases]
    # 26 typed places; two cases for each of 9 objects: the file, 4 streams, 4 uop groups
    assert len(cases) == 26 + 2 * 9
    for message in ("F: streams[3]: nontemporal: expected a boolean, got 0",
                    "F: uops[1]: count: expected an integer, got True",
                    "F: uops: expected a list, got {}",
                    "F: streams[0]: missing key(s) ['array']",
                    "F: uops[2]: unknown key(s) ['surplus']"):
        assert message in messages
