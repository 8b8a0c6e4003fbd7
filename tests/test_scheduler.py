import gc
import io
import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement, compress, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmkit import (
    PenaltyConfig,
    SchemaError,
    builtin_haswell,
    builtin_kernels,
    build_nol_problem,
    build_ol_problem,
    core_timing,
    frontend_bound,
    min_cycles,
    scale,
    serialize_machine,
)
from ecmkit import _pairing, scheduler
from ecmkit.errors import CapabilityError
from ecmkit.kernels import MAX_UOPS_PER_LINE, KernelModel, Stream, UopGroup
from ecmkit.machine import MEMO_ENTRIES, MachineModel, MemoryModel, NumaConfig, PortSpec
from ecmkit._pairing import PackingSearch, PatternTable, Unit, least_span, pattern_table
from ecmkit.cli import run
from ecmkit.scheduler import CoreTiming

from oracles import (
    ReferenceSearch,
    _co_schedulable,
    _dot,
    backtracking_pairing_span,
    brute_force_min_cycles,
    enumerated_pattern_table,
    independent_bounds,
    matching_min_cycles,
    problem_core_timing,
    reference_least_span,
    truncated_steps,
)

HASWELL = builtin_haswell()
KERNELS = builtin_kernels()


def problem(*items):
    return {frozenset(ports): count for ports, count in items}


@pytest.mark.parametrize(
    "items,expected",
    [
        ([({2, 3}, 4)], 2),
        ([({2, 3}, 8)], 4),
        ([({2, 3}, 6), ({2, 3, 7}, 2)], 3),
        ([], 0),
        ([({0}, 1)], 1),
        ([({0, 1, 2}, 7)], 3),
    ],
)
def test_min_cycles_known_cases(items, expected):
    assert min_cycles(problem(*items)) == expected


def test_empty_port_set_rejected():
    with pytest.raises(SchemaError, match="non-empty"):
        min_cycles({frozenset(): 1})
    with pytest.raises(SchemaError, match="uop count >= 1"):
        min_cycles({frozenset({0}): 0})


def test_nol_examples():
    assert min_cycles(build_nol_problem(KERNELS["stream_triad"], HASWELL)) == 3
    assert min_cycles(build_nol_problem(KERNELS["store"], HASWELL)) == 2
    assert min_cycles(build_nol_problem(KERNELS["load"], HASWELL)) == 1
    assert min_cycles(build_nol_problem(KERNELS["schoenauer_triad"], HASWELL)) == 4
    assert min_cycles(build_nol_problem(KERNELS["schoenauer_triad_opt"], HASWELL)) == 3


def test_ol_examples():
    assert min_cycles(build_ol_problem(KERNELS["ddot"], HASWELL)) == 1
    assert min_cycles(build_ol_problem(KERNELS["load"], HASWELL)) == 2
    assert min_cycles(build_ol_problem(KERNELS["schoenauer_triad_opt"], HASWELL)) == 1


def test_lea_excluded_from_nol():
    # the loads and each store's address and data uop, none of the lea uops
    kernel = KERNELS["schoenauer_triad_opt"]
    assert kernel.uop_count("lea") > 0
    nol = build_nol_problem(kernel, HASWELL)
    assert sum(nol.values()) == kernel.uop_count("load") + 2 * kernel.uop_count("store")


def test_frontend_bound_examples():
    assert frontend_bound(KERNELS["update"], HASWELL) == 2
    assert frontend_bound(KERNELS["ddot"], HASWELL) == 2
    empty = KernelModel("empty", (), 8, ())
    assert frontend_bound(empty, HASWELL) == 0


def test_frontend_bound_is_exact_above_two_to_the_53():
    # 2 stores of 15000000000000001 slots at 4 a cycle; a float quotient
    # rounds 7500000000000000.5 down to an integer and loses the last cycle
    machine = replace(HASWELL, store_uop_weight=15_000_000_000_000_001)
    kernel = KERNELS["store"]
    assert frontend_bound(kernel, machine) == 7_500_000_000_000_001
    assert core_timing(kernel, machine) == oracle_timing(kernel, machine)


# (t_ol, t_nol) per kernel on the built-in machine
CORE_TIMINGS = {
    "ddot": (1, 2),
    "load": (2, 1),
    "store": (0, 2),
    "update": (2, 2),
    "copy": (0, 2),
    "stream_triad": (1, 3),
    "schoenauer_triad": (1, 4),
}


@pytest.mark.parametrize("name,expected", sorted(CORE_TIMINGS.items()))
def test_core_timing_reference_kernels(name, expected):
    timing = core_timing(KERNELS[name], HASWELL)
    assert (timing.t_ol, timing.t_nol) == expected


def test_update_charged_to_overlap_component():
    # two multiplies cannot co-retire in one cycle next to the store traffic
    timing = core_timing(KERNELS["update"], HASWELL)
    assert timing.t_ol == 2
    assert frontend_bound(KERNELS["update"], HASWELL) == 2


def test_opt_variant_addressing_faster_but_frontend_bound():
    kernel = KERNELS["schoenauer_triad_opt"]
    timing = core_timing(kernel, HASWELL)
    assert timing.t_nol == 3
    # neither port bound binds the core time; the frontend does
    port_bounds = (min_cycles(build_nol_problem(kernel, HASWELL)), min_cycles(build_ol_problem(kernel, HASWELL)))
    assert max(timing.t_ol, timing.t_nol) == frontend_bound(kernel, HASWELL) > max(port_bounds)


def test_core_timing_respects_frontend_invariant():
    for kernel in KERNELS.values():
        timing = core_timing(kernel, HASWELL)
        assert max(timing.t_ol, timing.t_nol) >= frontend_bound(kernel, HASWELL)


def test_core_timing_order_independent():
    rng = random.Random(3)
    for kernel in KERNELS.values():
        baseline = core_timing(kernel, HASWELL)
        uops = list(kernel.uops)
        for _ in range(4):
            rng.shuffle(uops)
            shuffled = KernelModel(kernel.name, kernel.streams, kernel.element_bytes, tuple(uops))
            assert core_timing(shuffled, HASWELL) == baseline


def test_missing_capability_raises():
    no_fma = MachineModel(
        name="tiny",
        frequency_ghz=HASWELL.frequency_ghz,
        retire_width=4,
        store_uop_weight=2,
        ports=(PortSpec(0, frozenset({"add"})), PortSpec(2, frozenset({"load-agu-full"})), PortSpec(4, frozenset({"store-data"}))),
        boundaries=HASWELL.boundaries,
        memory=MemoryModel(default_bandwidth_gbs=HASWELL.memory.default_bandwidth_gbs),
        numa=NumaConfig(1, 1, False),
    )
    with pytest.raises(CapabilityError, match="fma"):
        build_ol_problem(KERNELS["ddot"], no_fma)


@pytest.mark.parametrize(
    "kernel,capabilities,missing",
    [
        ("ddot", ["fma", "agu-simple", "store-data"], "load-agu-full"),
        ("store", ["agu-simple", "store-data"], "address-generation"),
        ("store", ["load-agu-full", "agu-simple"], "store-data"),
    ],
)
def test_missing_memory_capability_raises(kernel, capabilities, missing):
    """A base-index-offset store takes its address from a load-agu-full port
    only, so the simple AGU alone serves it no address."""
    ports = tuple(PortSpec(i, frozenset({c})) for i, c in enumerate(capabilities))
    with pytest.raises(CapabilityError) as raised:
        build_nol_problem(KERNELS[kernel], replace(HASWELL, ports=ports))
    assert str(raised.value) == f"kernel {kernel!r} needs {missing} ports"


def _random_problem(rng, max_uops=10, max_ports=8):
    n_ports = rng.randint(1, max_ports)
    universe = rng.sample(range(8), n_ports)
    n_uops = rng.randint(0, max_uops)
    sets = []
    for _ in range(n_uops):
        k = rng.randint(1, n_ports)
        sets.append(frozenset(rng.sample(universe, k)))
    return sets


def test_min_cycles_agrees_with_exhaustive_oracle():
    rng = random.Random(0xEC)
    for _ in range(300):
        sets = _random_problem(rng)
        assert min_cycles(Counter(sets)) == brute_force_min_cycles(sets)


def test_min_cycles_agrees_with_matching_oracle():
    rng = random.Random(0xCE)
    for _ in range(150):
        sets = _random_problem(rng, max_uops=8, max_ports=6)
        assert min_cycles(Counter(sets)) == matching_min_cycles(sets)


port_sets = st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8).map(frozenset)


@settings(max_examples=150, deadline=None)
@given(st.lists(port_sets, min_size=0, max_size=9), port_sets)
def test_min_cycles_monotone_in_uops(sets, extra):
    assert min_cycles(Counter(sets + [extra])) >= min_cycles(Counter(sets))


@settings(max_examples=150, deadline=None)
@given(st.lists(port_sets, min_size=1, max_size=9), st.integers(min_value=0, max_value=7), st.data())
def test_min_cycles_monotone_in_ports(sets, new_port, data):
    index = data.draw(st.integers(min_value=0, max_value=len(sets) - 1))
    widened_sets = list(sets)
    widened_sets[index] = widened_sets[index] | {new_port}
    assert min_cycles(Counter(widened_sets)) <= min_cycles(Counter(sets))


# ---------------------------------------------------------------------------
# joint retire/port pairing

BIO, OFFSET = "base-index-offset", "offset-only"
MEMORY_UOPS = (("load", BIO), ("load", OFFSET), ("store", BIO), ("store", OFFSET))
ARITH_UOPS = ("fma", "add", "mul", "lea")
CAPABILITIES = ("load-agu-full", "agu-simple", "store-data") + ARITH_UOPS
# 0-2 extra arithmetic uops on top of an unrolled built-in
EXTRAS = [extras for n in range(3) for extras in combinations_with_replacement(("add", "mul", "lea"), n)]
# most search states any unrolled built-in below may visit; the exhaustive
# uop-by-uop search needed up to 200 000 nodes and more on these kernels
PAIRING_STATE_LIMIT = 150


def unrolled(kernel, factor, extras=()):
    uops = tuple(replace(g, count=g.count * factor) for g in kernel.uops)
    return replace(kernel, uops=uops + tuple(UopGroup(1, extra) for extra in extras))


def unit_counts(kernel, machine):
    """The kernel's unit count of each kind, in the order of the machine's
    CoreLayout.units."""
    layout = machine._core_layout
    counts = [0] * len(layout.units)
    for g in kernel.uops:
        counts[layout.needs[g.uop_class, g.addressing][-1]] += g.count
    return counts


def core_bounds(kernel, machine):
    """(t_nol, raw T_OL, frontend bound) from the problem builders."""
    t_nol = min_cycles(build_nol_problem(kernel, machine))
    return t_nol, min_cycles(build_ol_problem(kernel, machine)), frontend_bound(kernel, machine)


def pairing_query(kernel, machine):
    """(unit counts, lower, raw_ol) for the raw pairing span: the search
    starts at the arithmetic port makespan, whether or not the frontend
    binds. core_timing asks for timing_query instead."""
    t_nol, raw_ol, fe = core_bounds(kernel, machine)
    return unit_counts(kernel, machine), max(t_nol, raw_ol, fe), raw_ol


def timing_query(kernel, machine):
    """(unit counts, lower, start) as core_timing asks CoreLayout.span for
    them: the search starts at the frontend bound where that exceeds t_nol."""
    t_nol, raw_ol, fe = core_bounds(kernel, machine)
    start = max(raw_ol, fe) if fe > t_nol else raw_ol
    return unit_counts(kernel, machine), max(t_nol, start), start


def pairing(kernel, machine):
    """(raw pairing span, search states)."""
    return machine._core_layout.span(*pairing_query(kernel, machine))


def oracle_span(kernel, machine):
    """The backtracking oracle on units built straight from the machine's
    port capabilities."""
    full = machine.ports_with("load-agu-full")
    data = machine.ports_with("store-data")
    units = []
    for g in kernel.uops:
        if g.uop_class == "load":
            unit = ((full,), 1, False)
        elif g.uop_class == "store":
            address = full | machine.ports_with("agu-simple") if g.addressing == OFFSET else full
            unit = ((address, data), machine.store_uop_weight, False)
        else:
            unit = ((machine.ports_with(g.uop_class),), 1, True)
        units += [unit] * g.count
    raw_ol = brute_force_min_cycles([choices[0] for choices, _, overlapping in units if overlapping])
    return backtracking_pairing_span(units, machine.retire_width, raw_ol)


def random_kernel(rng, memory_uops, arith_uops, max_uops):
    """At least one memory and one arithmetic uop, at most max_uops in all."""
    picks = [rng.choice(memory_uops), (rng.choice(arith_uops), None)]
    picks += [rng.choice(memory_uops + tuple((a, None) for a in arith_uops)) for _ in range(rng.randint(0, max_uops - 2))]
    counts = {}
    for pick in picks:
        counts[pick] = counts.get(pick, 0) + 1
    return KernelModel("random", (), 8, tuple(UopGroup(n, cls, addressing) for (cls, addressing), n in counts.items()))


def random_machine(rng):
    """A few ports with random capabilities, a random retire width and store
    weight; the uop kinds it can run."""
    while True:
        ports = tuple(
            PortSpec(i, frozenset(rng.sample(CAPABILITIES, rng.randint(1, 3)))) for i in range(rng.randint(3, 6))
        )
        machine = replace(HASWELL, ports=ports, retire_width=rng.randint(2, 4), store_uop_weight=rng.randint(1, 2))
        full, data = machine.ports_with("load-agu-full"), machine.ports_with("store-data")
        simple = machine.ports_with("agu-simple")
        memory = tuple(
            (cls, addressing)
            for cls, addressing in MEMORY_UOPS
            if full and (cls == "load" or data) or (cls == "store" and addressing == OFFSET and simple and data)
        )
        arith = tuple(a for a in ARITH_UOPS if machine.ports_with(a))
        if memory and arith:
            return machine, memory, arith


def test_pairing_span_agrees_with_backtracking_oracle_on_builtin_machine():
    rng = random.Random(0x1511)
    for _ in range(150):
        kernel = random_kernel(rng, MEMORY_UOPS, ARITH_UOPS, max_uops=10)
        assert pairing(kernel, HASWELL)[0] == oracle_span(kernel, HASWELL), kernel.uops


def test_pairing_span_agrees_with_backtracking_oracle_on_random_port_layouts():
    rng = random.Random(0x0363)
    for _ in range(150):
        machine, memory, arith = random_machine(rng)
        kernel = random_kernel(rng, memory, arith, max_uops=8)
        assert pairing(kernel, machine)[0] == oracle_span(kernel, machine), (machine.ports, kernel.uops)


def first_total(search, counts):
    total = 1
    while not search.fits(counts, total, 0):
        total += 1
    return total


def least_span_at(search, counts, total):
    return next(span for span in range(1, total + 1) if search.fits(counts, span, total - span))


def test_pairing_never_gets_easier_when_a_uop_is_added():
    """Adding a unit never lowers the joint cycle count, nor, at a given
    cycle count, the span the arithmetic needs. (The span at each kernel's
    own first cycle count can fall: see the unrolled update below.)"""
    rng = random.Random(0xECA)
    for _ in range(60):
        kernel = unrolled(random_kernel(rng, MEMORY_UOPS, ARITH_UOPS, max_uops=6), rng.randint(1, 3))
        counts = unit_counts(kernel, HASWELL)
        kinds = tuple(compress(HASWELL._core_layout.units, counts))
        table = pattern_table(kinds, HASWELL.retire_width)
        counts = tuple(filter(None, counts))
        grown = list(counts)
        grown[rng.randrange(len(kinds))] += 1
        grown = tuple(grown)
        total = first_total(PackingSearch(table), grown)
        assert total >= first_total(PackingSearch(table), counts)
        assert least_span_at(PackingSearch(table), grown, total) >= least_span_at(PackingSearch(table), counts, total)


@pytest.mark.parametrize("factor", [1, 2, 4, 8])
def test_unrolled_update_pairs_one_multiply_per_cycle(factor):
    # every cycle carries a store (port 4, two retire slots) and a load, so
    # one retire slot is left for a multiply
    timing = core_timing(unrolled(KERNELS["update"], factor), HASWELL)
    assert (timing.t_ol, timing.t_nol) == (2 * factor, 2 * factor)


def test_unrolled_update_with_one_more_load_needs_a_cycle_more_and_spreads_less():
    # the ninth load pushes the joint schedule to 9 cycles; three of them
    # retire only a store and a load, and the 8 multiplies fit in the other 6
    kernel = unrolled(KERNELS["update"], 4)
    kernel = replace(kernel, uops=kernel.uops + (UopGroup(1, "load", BIO),))
    timing = core_timing(kernel, HASWELL)
    assert (timing.t_ol, timing.t_nol, frontend_bound(kernel, HASWELL)) == (6, 9, 9)


def test_pairing_search_work_stays_bounded_on_unrolled_builtins():
    over = []
    for name, kernel in sorted(KERNELS.items()):
        if any(s.nontemporal for s in kernel.streams):
            continue
        for factor in (1, 2, 4, 8):
            for extras in EXTRAS:
                _, states = searched(unrolled(kernel, factor, extras), HASWELL)
                if states > PAIRING_STATE_LIMIT:
                    over.append((name, factor, extras, states))
    assert not over


# search states of each unrolled built-in, in EXTRAS order; a change to the
# search order or to the pruning shows up here
PAIRING_STATES = {
    ("copy", 1): (2, 2, 2, 2, 2, 5, 5, 5, 5, 5),
    ("copy", 2): (4, 4, 4, 4, 4, 7, 7, 7, 7, 7),
    ("copy", 4): (8, 8, 8, 8, 8, 11, 11, 11, 11, 11),
    ("copy", 8): (16, 16, 16, 16, 16, 19, 19, 19, 19, 19),
    ("ddot", 1): (2, 2, 2, 4, 2, 2, 4, 2, 3, 4),
    ("ddot", 2): (4, 4, 4, 6, 4, 4, 6, 4, 5, 7),
    ("ddot", 4): (8, 8, 8, 10, 8, 8, 10, 8, 9, 11),
    ("ddot", 8): (16, 16, 16, 18, 16, 16, 18, 16, 17, 19),
    ("load", 1): (2, 3, 2, 2, 4, 3, 3, 2, 2, 3),
    ("load", 2): (4, 5, 4, 4, 6, 5, 5, 4, 4, 5),
    ("load", 4): (8, 9, 8, 8, 10, 9, 9, 8, 8, 9),
    ("load", 8): (16, 17, 16, 16, 18, 17, 17, 16, 16, 17),
    ("schoenauer_triad", 1): (4, 4, 4, 6, 4, 4, 6, 4, 5, 6),
    ("schoenauer_triad", 2): (8, 8, 8, 10, 8, 8, 10, 8, 9, 11),
    ("schoenauer_triad", 4): (16, 16, 16, 18, 16, 16, 18, 16, 17, 19),
    ("schoenauer_triad", 8): (32, 32, 32, 34, 32, 32, 34, 32, 33, 35),
    ("schoenauer_triad_opt", 1): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    ("schoenauer_triad_opt", 2): (8, 7, 7, 8, 8, 8, 7, 8, 7, 7),
    ("schoenauer_triad_opt", 4): (14, 15, 15, 14, 17, 17, 16, 17, 16, 15),
    ("schoenauer_triad_opt", 8): (28, 29, 29, 28, 31, 31, 30, 31, 30, 29),
    ("store", 1): (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    ("store", 2): (4, 4, 4, 4, 4, 4, 4, 4, 4, 4),
    ("store", 4): (8, 8, 8, 8, 8, 8, 8, 8, 8, 8),
    ("store", 8): (16, 16, 16, 16, 16, 16, 16, 16, 16, 16),
    ("stream_triad", 1): (3, 3, 3, 5, 6, 6, 8, 6, 7, 8),
    ("stream_triad", 2): (6, 6, 6, 8, 9, 9, 11, 9, 10, 12),
    ("stream_triad", 4): (12, 12, 12, 14, 15, 15, 17, 15, 16, 18),
    ("stream_triad", 8): (24, 24, 24, 26, 27, 27, 29, 27, 28, 30),
    ("update", 1): (5, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    ("update", 2): (12, 6, 6, 6, 8, 7, 6, 7, 6, 7),
    ("update", 4): (26, 16, 16, 18, 20, 19, 20, 19, 20, 21),
    ("update", 8): (54, 44, 44, 46, 48, 47, 48, 47, 48, 49),
}


# the raw pairing queries of each unrolled built-in, in EXTRAS order, that
# CoreLayout.span answers with no table or search (+: _place fits the
# answer, after root bounds refute every span below it) or leaves to them
# (.); the first query of copy and store, with no extra, has no arithmetic,
# and _place fits its memory-only cycles at start 0 as at any other start
CERTIFIED = {
    ("copy", 1): "++++++++++",
    ("copy", 2): "++++++++++",
    ("copy", 4): "++++++++++",
    ("copy", 8): "++++++++++",
    ("ddot", 1): "++++++++++",
    ("ddot", 2): "++++++++++",
    ("ddot", 4): "++++++++++",
    ("ddot", 8): "++++++++++",
    ("load", 1): "++++++++++",
    ("load", 2): "++++++++++",
    ("load", 4): "++++++++++",
    ("load", 8): "++++++++++",
    ("schoenauer_triad", 1): "++++++++++",
    ("schoenauer_triad", 2): "++++++++++",
    ("schoenauer_triad", 4): "++++++++++",
    ("schoenauer_triad", 8): "++++++++++",
    ("schoenauer_triad_opt", 1): "++++++++++",
    ("schoenauer_triad_opt", 2): "++++++++++",
    ("schoenauer_triad_opt", 4): "++++++++++",
    ("schoenauer_triad_opt", 8): "+.........",
    ("store", 1): "++++++++++",
    ("store", 2): "++++++++++",
    ("store", 4): "++++++++++",
    ("store", 8): "++++++++++",
    ("stream_triad", 1): "++++++++++",
    ("stream_triad", 2): "++++++++++",
    ("stream_triad", 4): "++++++++++",
    ("stream_triad", 8): "++++++++++",
    ("update", 1): "++++++++++",
    ("update", 2): "++++++++++",
    ("update", 4): "++++++++++",
    ("update", 8): "++++++++++",
}


# core_timing's queries on every unrolled built-in (x{1,2,4,8} with EXTRAS)
# that CoreLayout.span answers with no search: all 392 kernels with
# arithmetic (291 placed at the start, 101 after refutations)
CERTIFIED_TIMINGS = 392


def searched(kernel, machine, query=pairing_query):
    """(span, search states) from least_span on the kind set's own table,
    with no certificate tried first."""
    counts, lower, start = query(kernel, machine)
    table = pattern_table(tuple(compress(machine._core_layout.units, counts)), machine.retire_width)
    return least_span(table, tuple(filter(None, counts)), lower, start)


def test_pairing_search_visits_the_pinned_states_on_unrolled_builtins():
    """The search's states on every query, and which queries CoreLayout.span
    answers by a built schedule: those report 0 states."""
    states, certified = {}, {}
    for name, kernel in sorted(KERNELS.items()):
        if not any(s.nontemporal for s in kernel.streams):
            for factor in (1, 2, 4, 8):
                kernels = [unrolled(kernel, factor, extras) for extras in EXTRAS]
                states[name, factor] = tuple(searched(k, HASWELL)[1] for k in kernels)
                certified[name, factor] = "".join(".+"[pairing(k, HASWELL)[1] == 0] for k in kernels)
    assert states == PAIRING_STATES
    assert certified == CERTIFIED


def random_kinds(rng):
    """1-5 distinct unit kinds on 2-8 ports, and a retire width of 1-6."""
    ports = range(rng.randint(2, 8))
    kinds = {
        Unit(
            tuple(frozenset(rng.sample(ports, rng.randint(1, len(ports)))) for _ in range(rng.choice((1, 1, 2)))),
            rng.randint(1, 3),
            rng.random() < 0.5,
        )
        for _ in range(rng.randint(1, 5))
    }
    return tuple(kinds), rng.randint(1, 6)


def test_pattern_table_equals_the_enumeration_of_every_count():
    rng = random.Random(0x4A5)
    for _ in range(300):
        kinds, width = random_kinds(rng)
        table = pattern_table(kinds, width)
        oracle = enumerated_pattern_table([(k.port_choices, k.weight, k.overlapping) for k in kinds], width)
        if oracle is None:
            assert table is None, (kinds, width)
        else:
            assert (table.maximal, set(table.bounds)) == oracle, (kinds, width)


def unpacked_steps(table, counts) -> list[tuple[int, ...]]:
    """The table's steps at `counts`, each unpacked into a count vector."""
    fields = range(len(counts))
    return [tuple(step >> table.width * j & table.field for j in fields) for step, _, _ in table.steps(table.pack(counts))]


def test_pattern_table_steps_equal_the_truncated_maximal_patterns():
    rng = random.Random(0x5EB)
    tables = [t for t in (pattern_table(*random_kinds(rng)) for _ in range(150)) if t is not None]
    for table in tables:
        for _ in range(10):
            counts = tuple(rng.randint(0, peak + 2) for peak in table.peak)
            steps = unpacked_steps(table, counts)
            assert steps == truncated_steps(table.maximal, table.weights, counts), (table, counts)
            # the steps depend on the counts only through the clamp
            assert unpacked_steps(table, tuple(map(min, counts, table.peak))) == steps


# where the arithmetic runs out with arithmetic cycles left, those turn
# memory-only, and on these kinds at retire width 3, with counts (3, 1, 9, 1),
# lower bound 6 and raw T_OL 6, that takes away slack that prunes (55 states,
# not 60)
PINNED_KINDS = (
    Unit((frozenset({0, 1, 2, 3, 4}),), 2, False),
    Unit((frozenset({1}), frozenset({4})), 3, False),
    Unit((frozenset({3, 4}),), 1, False),
    Unit((frozenset({2, 3}), frozenset({0, 2, 4})), 2, True),
)


def test_pairing_search_finds_the_reference_search_span_and_states():
    """The search that carries slack visits the states the reference search
    (every bound recomputed at each state) visits, and finds the same span."""
    table = pattern_table(PINNED_KINDS, 3)
    assert least_span(table, (3, 1, 9, 1), 6, 6) == reference_least_span(table, (3, 1, 9, 1), 6, 6) == (6, 55)
    rng = random.Random(0x51AC)
    cases = 0
    while cases < 400:
        kinds, width = random_kinds(rng)
        table = pattern_table(kinds, width)
        if table is None:
            continue
        counts = tuple(rng.randint(1, 9) for _ in kinds)
        lower = rng.randint(1, sum(counts))
        raw_ol = rng.randint(1, lower)
        assert least_span(table, counts, lower, raw_ol) == reference_least_span(table, counts, lower, raw_ol)
        cases += 1
        # the step lists are memoized by the clamped counts
        for clamp in table.memo:
            clamp = [clamp >> table.width * j & table.field for j in range(len(kinds))]
            assert all(c <= peak for c, peak in zip(clamp, table.peak)), (kinds, counts, clamp)


def test_reference_search_does_not_call_the_step_code_it_checks(monkeypatch):
    """The reference search truncates the maximal patterns itself, so a fault
    in PatternTable.steps cannot show up on both sides of a comparison."""
    table = pattern_table(PINNED_KINDS, 3)

    def broken(self, clamp):
        raise AssertionError("the reference search called PatternTable.steps")

    monkeypatch.setattr(PatternTable, "steps", broken)
    assert reference_least_span(table, (3, 1, 9, 1), 6, 6) == (6, 55)


def test_bounds_that_others_imply_change_no_search():
    """A table keeps every bound; one that independent_bounds drops has a
    slack no smaller than another's, or than the sum of two others', so it
    is never the first to go negative. The search finds the same span and
    visits the same states on the table and on its independent bounds."""
    dropped = Counter()

    def same_search(table, counts, lower, raw_ol):
        pruned = PatternTable(table.weights, table.arithmetic, table.maximal, independent_bounds(table.bounds), table.peak)
        dropped[len(table.bounds) > len(pruned.bounds)] += 1
        expected = least_span(pruned, counts, lower, raw_ol)
        assert least_span(table, counts, lower, raw_ol) == expected, (table, counts, lower, raw_ol)

    rng = random.Random(0x1D9)
    # all 63 kind sets of the machine's 6 unit kinds, a few counts each
    units = HASWELL._core_layout.units
    for present in product((False, True), repeat=6):
        kinds = tuple(compress(units, present))
        if kinds:
            table = pattern_table(kinds, HASWELL.retire_width)
            for _ in range(3):
                counts = tuple(rng.randint(1, 9) for _ in kinds)
                lower = rng.randint(1, sum(counts))
                same_search(table, counts, lower, rng.randint(1, lower))
    # every built-in unrolled x{1,2,4,8} with 0-2 extra arithmetic uops
    layout = HASWELL._core_layout
    for kernel in KERNELS.values():
        for factor in (1, 2, 4, 8):
            for extras in EXTRAS:
                counts, lower, raw_ol = pairing_query(unrolled(kernel, factor, extras), HASWELL)
                table = pattern_table(tuple(compress(layout.units, counts)), HASWELL.retire_width)
                if table is not None:
                    same_search(table, tuple(filter(None, counts)), lower, raw_ol)
    # random kind sets and port layouts
    cases = 0
    while cases < 400:
        kinds, width = random_kinds(rng)
        table = pattern_table(kinds, width)
        if table is not None:
            counts = tuple(rng.randint(1, 9) for _ in kinds)
            lower = rng.randint(1, sum(counts))
            same_search(table, counts, lower, rng.randint(1, lower))
            cases += 1
    # most tables hold bounds that others imply
    assert dropped[True] > dropped[False] > 0


def test_pairing_search_with_wider_fields_matches_the_reference_search():
    """Counts whose slack needs more than 16 bits a field: the table's
    fields hold the slack of MAX_UOPS_PER_LINE units, which these reach."""
    kinds = tuple(HASWELL._core_layout.units[i] for i in (0, 2, 3))  # store, load, fma/mul
    table = pattern_table(kinds, HASWELL.retire_width)
    small, large = (3, 2, 4), (4000, 2000, 4000)
    top = max(max(cap_any for _, cap_any, _ in table.bounds), *table.peak)
    assert sum(large) == MAX_UOPS_PER_LINE and top * sum(large) >= 1 << 15
    assert table.width == (top * MAX_UOPS_PER_LINE).bit_length() + 1
    assert least_span(table, large, 4000, 4000) == reference_least_span(table, large, 4000, 4000)
    search, reference = PackingSearch(table), ReferenceSearch(table)
    for counts, arith_cycles, memory_cycles in [(small, 4, 0), (small, 2, 1), (large, 4000, 0), (large, 3999, 0)]:
        expected = reference.fits(counts, arith_cycles, memory_cycles)
        assert search.fits(counts, arith_cycles, memory_cycles) == expected, (counts, arith_cycles, memory_cycles)


def test_least_span_refuses_more_units_than_a_packing_field_holds():
    kinds = tuple(HASWELL._core_layout.units[i] for i in (0, 2, 3))
    table = pattern_table(kinds, HASWELL.retire_width)
    with pytest.raises(ValueError, match=f"10001 units per cache line, more than {MAX_UOPS_PER_LINE}"):
        least_span(table, (4001, 2000, 4000), 4001, 4000)


def test_pattern_table_of_every_haswell_kind_set_equals_the_enumeration():
    """All 63 kind sets of the machine's 6 unit kinds, and the slack deltas
    stored with the steps at every clamp: y . step - cap for every bound."""
    units = HASWELL._core_layout.units
    assert len(units) == 6
    for present in product((False, True), repeat=6):
        kinds = tuple(compress(units, present))
        if not kinds:
            continue
        table = pattern_table(kinds, HASWELL.retire_width)
        oracle = enumerated_pattern_table([(k.port_choices, k.weight, k.overlapping) for k in kinds], HASWELL.retire_width)
        assert (table.maximal, set(table.bounds)) == oracle, kinds
        width = table.width
        for clamp in product(*(range(peak + 1) for peak in table.peak)):
            steps = truncated_steps(table.maximal, table.weights, clamp)
            branches = table.steps(table.pack(clamp))
            assert len(branches) == len(steps)
            for step, (packed, to_arithmetic, to_memory) in zip(steps, branches):
                assert packed == sum(c << width * j for j, c in enumerate(step))
                moved = [sum(map(mul, y, step)) for y, _, _ in table.bounds]
                assert to_arithmetic == sum((m - cap_any) << width * i for i, (m, (_, cap_any, _)) in enumerate(zip(moved, table.bounds)))
                assert to_memory == sum((m - cap_memory) << width * i for i, (m, (_, _, cap_memory)) in enumerate(zip(moved, table.bounds)))


def test_pairing_search_depth_is_not_bounded_by_recursion():
    # the search goes one cycle deeper per level: 1 500 cycles here
    kernel = KernelModel("deep", (), 8, (UopGroup(1500, "load", BIO), UopGroup(1500, "store", BIO), UopGroup(1500, "mul")))
    timing = core_timing(kernel, HASWELL)
    assert (timing.t_ol, timing.t_nol) == (1500, 1500)
    # a few states per cycle (5 248 in all), not a blow-up with the depth;
    # on the table itself, so that no certificate can skip the search
    _, states = searched(kernel, HASWELL)
    assert states <= 4 * 1500


# Haswell kernels whose core_timing query no placed schedule answers, so a
# table is built and searched: SEARCHED's (2 offset-only stores, a load, an
# fma and 2 lea: lower 2, start 1), and SEARCHED_AT_X3's once it is unrolled
# x3 (_place answers it x1), over a kind set of its own
SEARCHED = KernelModel("searched", (Stream("a", "read"), Stream("b", "write")), 8, (
    UopGroup(2, "store", OFFSET), UopGroup(1, "load", BIO), UopGroup(1, "fma"), UopGroup(2, "lea")))
SEARCHED_AT_X3 = KernelModel("searched-at-x3", (), 8, (
    UopGroup(1, "store", BIO), UopGroup(1, "store", OFFSET), UopGroup(1, "load", BIO), UopGroup(1, "add"), UopGroup(2, "lea")))


def test_equal_unit_counts_share_one_pairing_solve(monkeypatch):
    """One search per machine for kernels with equal unit counts (on a
    kernel whose query no built schedule answers, so the search runs)."""
    searches = []

    class CountedSearch(PackingSearch):
        def __init__(self, table):
            super().__init__(table)
            searches.append(table)

    monkeypatch.setattr(_pairing, "PackingSearch", CountedSearch)
    machine = builtin_haswell()
    kernel = SEARCHED
    expected = core_timing(kernel, machine)
    assert len(searches) == 1
    for other in (replace(kernel, name="renamed"), replace(kernel, uops=tuple(replace(g) for g in kernel.uops))):
        assert other is not kernel
        assert core_timing(other, machine) == expected
    assert len(searches) == 1
    assert core_timing(kernel, builtin_haswell()) == expected
    assert len(searches) == 2


def test_pattern_tables_and_solves_die_with_their_machine(tmp_path, monkeypatch):
    """No process-wide cache holds a machine's tables or solves: a table dies
    with its machine, and in-process CLI runs, each building its own machine,
    leave no table behind. The built-ins' own queries need no table, so the
    runs also time a kernel file whose query builds one."""
    machine = builtin_haswell()
    kernel = SEARCHED
    core_timing(kernel, machine)  # no built schedule fits
    table = weakref.ref(next(t for t in machine._core_layout.tables.values() if t is not None))
    del machine
    gc.collect()
    assert table() is None
    searched = tmp_path / "searched.json"
    uops = [{"count": g.count, "class": g.uop_class, **({"addressing": g.addressing} if g.addressing else {})} for g in kernel.uops]
    streams = [{"array": s.array_name, "access": s.access} for s in kernel.streams]
    searched.write_text(json.dumps({"name": "searched", "element_bytes": 8, "streams": streams, "uops": uops, "flops_per_iteration": 1}))
    tables = []
    table_of = scheduler.pattern_table
    monkeypatch.setattr(scheduler, "pattern_table", lambda *kinds: tables.append(kinds) or table_of(*kinds))
    before = weakref.WeakSet(o for o in gc.get_objects() if isinstance(o, PatternTable))
    for name in sorted(KERNELS) * 4 + [str(searched)] * 4:
        assert run(["predict", "-k", name, "--penalty"], out=io.StringIO()) == 0
    gc.collect()
    assert len(tables) == 4
    assert [o for o in gc.get_objects() if isinstance(o, PatternTable) and o not in before] == []


def test_span_memo_is_cleared_when_it_holds_memo_entries_solves():
    layout = builtin_haswell()._core_layout
    for count in range(1, MEMO_ENTRIES + 2):  # arithmetic alone: no table, raw_ol as it is
        assert layout.span([0, 0, 0, count, 0, 0], count, count) == (count, 0)
    assert len(layout.spans) == 1
    assert (layout.spans.misses, layout.spans.clears) == (MEMO_ENTRIES + 1, 1)


def test_each_unit_kind_is_one_object_in_pattern_table_order():
    """Memory kinds first, heavier first, then by port ids."""
    layout = HASWELL._core_layout
    assert len(set(layout.units)) == len(layout.units)
    assert {need[-1] for need in layout.needs.values()} == set(range(len(layout.units)))
    orders = [(unit.overlapping, -unit.weight, [sorted(p) for p in unit.port_choices]) for unit in layout.units]
    assert orders == sorted(orders)
    assert [unit.overlapping for unit in layout.units] == [False] * 3 + [True] * 3


# ---------------------------------------------------------------------------
# the per-machine port layout against the per-call problem builders


def outcome(timing, kernel, machine):
    """The CoreTiming, or the CapabilityError message."""
    try:
        return timing(kernel, machine)
    except CapabilityError as exc:
        return f"error: {exc}"


def oracle_timing(kernel, machine):
    return CoreTiming(*problem_core_timing(kernel, machine))


def test_core_timing_equals_the_problem_builder_oracle_on_random_port_layouts():
    """The oracle raises the raw span to the frontend bound afterwards;
    core_timing starts its search there. Some cases must take that path."""
    rng = random.Random(0x1A7)
    frontend_raised = 0
    for _ in range(200):
        machine, memory, arith = random_machine(rng)
        kernel = unrolled(random_kernel(rng, memory, arith, max_uops=8), rng.choice((1, 1, 2, 3)))
        assert core_timing(kernel, machine) == oracle_timing(kernel, machine), (machine.ports, kernel.uops)
        t_nol, _, fe = core_bounds(kernel, machine)
        frontend_raised += fe > t_nol and pairing(kernel, machine)[0] < fe
    # 50 of the 200 at this seed
    assert frontend_raised >= 40


def test_core_timing_equals_the_problem_builder_oracle_on_unrolled_builtins():
    frontend_starts = 0
    for kernel in KERNELS.values():
        for factor in (1, 2, 4, 8):
            for extras in EXTRAS:
                scaled = unrolled(kernel, factor, extras)
                assert core_timing(scaled, HASWELL) == oracle_timing(scaled, HASWELL), (kernel.name, factor, extras)
                t_nol, raw_ol, fe = core_bounds(scaled, HASWELL)
                if 0 < raw_ol < fe and t_nol < fe:
                    # core_timing's own query starts at fe and answers max(raw span, fe)
                    span, _ = HASWELL._core_layout.span(*timing_query(scaled, HASWELL))
                    assert span == max(pairing(scaled, HASWELL)[0], fe), (kernel.name, factor, extras)
                    frontend_starts += 1
    assert frontend_starts == 76


def test_core_timing_equals_a_search_only_run_on_unrolled_builtins():
    """T_OL from least_span on the kind set's own table, with no schedule
    built first; a built schedule answers most of these queries."""
    certified = 0
    for kernel in KERNELS.values():
        for factor in (1, 2, 4, 8):
            for extras in EXTRAS:
                scaled = unrolled(kernel, factor, extras)
                t_nol, raw_ol, _ = core_bounds(scaled, HASWELL)
                t_ol = searched(scaled, HASWELL, timing_query)[0] if raw_ol else 0
                assert core_timing(scaled, HASWELL) == (t_ol, t_nol), (kernel.name, factor, extras)
                certified += raw_ol > 0 and HASWELL._core_layout.span(*timing_query(scaled, HASWELL))[1] == 0
    assert certified == CERTIFIED_TIMINGS


def random_layout(rng):
    """A machine of 2-8 ports with 1-4 random capabilities each, a retire
    width of 1-6 and a store weight of 1-3, like random_kinds."""
    ports = tuple(PortSpec(i, frozenset(rng.sample(CAPABILITIES, rng.randint(1, 4)))) for i in range(rng.randint(2, 8)))
    return replace(HASWELL, ports=ports, retire_width=rng.randint(1, 6), store_uop_weight=rng.randint(1, 3))


def test_an_answer_with_no_search_is_the_first_fit_of_the_search():
    """Soundness of the placed schedules: where CoreLayout.span answers with
    no search (by _place at the start, or at the first span the root bounds
    leave), the search fits the same candidate, lower cycles with the
    arithmetic in `span` of them, and least_span finds the same span; where
    it searches, span answers as least_span does, states and all."""
    rng = random.Random(0x5B1)
    outcomes = Counter()
    for _ in range(2800):
        layout = random_layout(rng)._core_layout
        counts = [rng.choice((0, 0, rng.randint(1, 8))) for _ in layout.units]
        kinds = tuple(compress(layout.units, counts))
        table = pattern_table(kinds, layout.width) if not all(k.overlapping for k in kinds) else None
        if table is None:
            continue
        lower = rng.randint(1, sum(counts))
        start = rng.randint(0, lower)
        kind_counts = tuple(filter(None, counts))
        span, expected = layout.span(counts, lower, start), least_span(table, kind_counts, lower, start)
        assert span[0] == expected[0], (kinds, kind_counts, lower, start)
        if span[1] == 0:
            assert PackingSearch(table).fits(kind_counts, span[0], lower - span[0]), (kinds, kind_counts, lower, start)
            outcomes["fits"] += 1
        else:
            assert span == expected, (kinds, kind_counts, lower, start)
            outcomes["searched"] += 1
    assert min(outcomes["fits"], outcomes["searched"]) >= 300, outcomes  # 372 fit and 701 searched at this seed


def placed_cycles(layout, counts, lower, span) -> list[tuple[int, ...]] | None:
    """The per-cycle count vectors of the schedule CoreLayout._place builds,
    its runs expanded in cycle order, or None."""
    runs = layout._place(counts, lower, span)
    return None if runs is None else [tuple(cycle) for cycles, cycle in runs for _ in range(cycles)]


def layout_query(layout, counts) -> tuple[int, int]:
    """(lower, start) as core_timing takes them from the port and frontend
    bounds, for unit counts in the layout's `units` order."""
    t_nol, raw_ol = (scheduler._binding_bound(bounds, counts)[0] for bounds in (layout.nol_bounds, layout.ol_bounds))
    fe = -(-sum(k.weight * c for k, c in zip(layout.units, counts)) // layout.width)
    start = max(raw_ol, fe) if fe > t_nol else raw_ol
    return max(t_nol, start), start


def certified_outcome(layout, counts, lower, start, enumerated) -> tuple:
    """How CoreLayout.span answers a query, after checking its answer: the
    span equals least_span's on the kind set's own table, and an answer with
    no search has its certificates. The schedule _place builds for it has
    `lower` cycles, each placed on distinct ports within the retire width by
    the brute-force oracle, no arithmetic from cycle `span` on, and column
    sums equal to the counts; and every span from `start` below it fails a
    root bound of the enumeration oracle's (memoized per kind set in
    `enumerated`): y . counts > cap_any * span + cap_memory * (lower - span)."""
    kinds = tuple(compress(layout.units, counts))
    kind_counts = tuple(filter(None, counts))
    query = (kinds, kind_counts, lower, start)
    span, states = layout.span(counts, lower, start)
    assert span == least_span(pattern_table(kinds, layout.width), kind_counts, lower, start)[0], query
    if states:
        return ("searched",)
    schedule = placed_cycles(layout, counts, lower, span)
    assert schedule is not None and len(schedule) == lower, query
    units = [(k.port_choices, k.weight, k.overlapping) for k in layout.units]
    for t, cycle in enumerate(schedule):
        assert _co_schedulable([units[j] for j, c in enumerate(cycle) for _ in range(c)], 1, 1, layout.width), (query, t)
        assert t < span or not any(c for c, unit in zip(cycle, layout.units) if unit.overlapping), (query, t)
    assert [sum(column) for column in zip(*schedule)] == counts, query
    if span > start:
        if kinds not in enumerated:
            enumerated[kinds] = enumerated_pattern_table([(k.port_choices, k.weight, k.overlapping) for k in kinds], layout.width)[1]
        for below in range(start, span):
            assert any(
                _dot(y, kind_counts) > cap_any * below + cap_memory * (lower - below)
                for y, cap_any, cap_memory in enumerated[kinds]
            ), (query, below)
    return ("placed after refutations" if span > start else "placed at start",)


def test_pairing_answers_with_no_search_carry_a_schedule_and_a_refutation_of_each_span_below():
    """certified_outcome on core_timing's queries, on random layouts with
    counts drawn as in the first-fit test and on every unrolled built-in
    with EXTRAS on Haswell. Each way to answer is taken."""
    rng = random.Random(0xCE27)
    outcomes, enumerated = Counter(), {}
    for _ in range(1000):
        layout = random_layout(rng)._core_layout
        counts = [rng.choice((0, 0, rng.randint(1, 8))) for _ in layout.units]
        lower, start = layout_query(layout, counts)
        kinds = tuple(compress(layout.units, counts))
        if start and lower <= sum(counts) and pattern_table(kinds, layout.width) is not None:
            outcomes["random", *certified_outcome(layout, counts, lower, start, enumerated)] += 1
    enumerated = {}
    for kernel in KERNELS.values():
        for factor in (1, 2, 4, 8):
            for extras in EXTRAS:
                counts, lower, start = timing_query(unrolled(kernel, factor, extras), HASWELL)
                if start:
                    outcomes["built-in", *certified_outcome(HASWELL._core_layout, counts, lower, start, enumerated)] += 1
    ways = Counter()
    for (_, *way), n in outcomes.items():
        ways[tuple(way)] += n
    # at this seed: 515 random queries (74 searched, 18 placed after
    # refutations) and 392 built-in ones (101 placed after them, none searched)
    assert len(ways) == 3 and min(ways.values()) >= 10, outcomes


# how CoreLayout.span answers every Haswell query with each unit count at
# most 4 and both a memory unit and arithmetic (15 376 queries): a ratchet.
# A change may lower the searched count, and records the new counts.
HASWELL_CENSUS = {"placed at start": 11575, "placed after refutations": 1044, "searched": 2757}


def test_haswell_queries_of_up_to_four_units_a_kind_answer_as_least_span():
    """Each query as core_timing poses it, on one new machine: the answer
    equals least_span's on the kind set's own table, and the census of the
    ways it was answered is HASWELL_CENSUS."""
    layout = builtin_haswell()._core_layout
    census, tables = Counter(), {}
    for counts in product(range(5), repeat=len(layout.units)):
        present = tuple(map(bool, counts))
        if not (any(p for p, unit in zip(present, layout.units) if not unit.overlapping) and any(
                p for p, unit in zip(present, layout.units) if unit.overlapping)):
            continue
        counts = list(counts)
        lower, start = layout_query(layout, counts)
        span, states = layout.span(counts, lower, start)
        if present not in tables:
            tables[present] = pattern_table(tuple(compress(layout.units, present)), layout.width)
        assert span == least_span(tables[present], tuple(filter(None, counts)), lower, start)[0], (counts, lower, start)
        census["searched" if states else "placed at start" if span == start else "placed after refutations"] += 1
    assert sum(census.values()) == 15376
    assert census == HASWELL_CENSUS


def test_a_one_cycle_placement_fits_iff_the_enumeration_fits_the_pattern():
    """In one cycle that takes arithmetic, _place places the pattern itself
    (a unit at a time, each addition checked), so the layout's packed rule
    over all its kinds must accept exactly the patterns that the enumeration
    oracle fits in a cycle: on Haswell's layout and on random ones, every
    pattern of retire weight up to the width. A bound left out of the rule
    lets some through."""
    rng = random.Random(0x1C7)
    checked = Counter()
    for machine in [replace(HASWELL)] + [random_layout(rng) for _ in range(100)]:
        layout = machine._core_layout
        units = [(k.port_choices, k.weight, k.overlapping) for k in layout.units]
        alone = [j for j, unit in enumerate(units) if enumerated_pattern_table([unit], layout.width) is not None]
        maximal, _ = enumerated_pattern_table([units[j] for j in alone], layout.width)
        fit = {v for pattern in maximal for v in product(*(range(c + 1) for c in pattern))}
        weights = [k.weight for k in layout.units]
        patterns = [()]
        for _ in weights:
            patterns = [p + (c,) for p in patterns for c in range(layout.width + 1) if sum(map(mul, p + (c,), weights)) <= layout.width]
        for counts in patterns:
            expected = not any(counts[j] for j in range(len(units)) if j not in alone) and tuple(counts[j] for j in alone) in fit
            assert (layout._place(list(counts), 1, 1) is not None) == expected, (layout.units, counts)
            checked[expected] += 1
    assert min(checked.values()) >= 5000, checked  # 5 290 fit and 14 567 do not at this seed


FRESH_EXTRAS = ((), ("add",), ("mul",), ("lea",), ("add", "lea"))


def test_fresh_workload_kernels_build_no_table_and_run_no_search(monkeypatch):
    """A work-count gate on the kernels of the fresh benchmark workload, the
    built-ins without non-temporal stores unrolled x{1,2,4,8} with no extra
    arithmetic or one add, mul, lea or add and lea. On one new machine, 152
    of them pose a pairing query (the other 8 have no arithmetic) over 19
    kind sets. _place answers 128 at their first candidate; root bounds,
    run only on the other 24, refute 35 candidates, and _place answers those
    24 at the first span they leave, so no table is built and nothing is
    searched. The layout's memos count the solves and the tables; patches
    count the rest, which no memo sees. One dict holds it all, so a failure
    shows the whole census."""
    census = Counter(searches=0)
    starts = []  # the start of the query being answered
    span, place, unrefuted = (getattr(scheduler.CoreLayout, name) for name in ("span", "_place", "_unrefuted"))

    def counted_span(layout, counts, lower, start):
        starts.append(start)
        try:
            return span(layout, counts, lower, start)
        finally:
            starts.pop()

    def counted_place(layout, counts, lower, start):
        runs = place(layout, counts, lower, start)
        census["placed at start" if start == starts[-1] else "placed after refutations"] += runs is not None
        return runs

    def counted_unrefuted(layout, counts, lower, start):
        first = unrefuted(layout, counts, lower, start)
        census["root bound runs"] += 1
        census["refuted candidates"] += first - start
        return first

    for name, method in (("span", counted_span), ("_place", counted_place), ("_unrefuted", counted_unrefuted)):
        monkeypatch.setattr(scheduler.CoreLayout, name, method)
    search = scheduler.least_span
    monkeypatch.setattr(scheduler, "least_span", lambda *query: census.update(searches=1) or search(*query))
    machine = builtin_haswell()
    for name, kernel in sorted(KERNELS.items()):
        if not any(s.nontemporal for s in kernel.streams):
            for factor in (1, 2, 4, 8):
                for extras in FRESH_EXTRAS:
                    core_timing(unrolled(kernel, factor, extras), machine)
    spans, tables = machine._core_layout.spans, machine._core_layout.tables
    census["queries"], census["answers"] = spans.misses, len(spans)
    census["kind sets"] = len({tuple(map(bool, counts)) for counts, _, _ in spans})
    census["table misses"], census["tables kept"] = tables.misses, len(tables)
    census["tables"] = sum(table is not None for table in tables.values())
    assert dict(census) == {
        "queries": 152, "answers": 152, "kind sets": 19, "placed at start": 128, "root bound runs": 24,
        "refuted candidates": 35, "placed after refutations": 24, "table misses": 0, "tables kept": 0, "tables": 0,
        "searches": 0,
    }


# the layout of ports 0-7 with the given capabilities at retire width 8,
# where a search from the raw T_OL up visits 281 606 states on this kernel
EIGHT_PORTS = replace(
    HASWELL,
    ports=tuple(
        PortSpec(i, frozenset(capabilities.split()))
        for i, capabilities in enumerate(
            (
                "add fma load-agu-full mul",
                "agu-simple lea mul store-data",
                "add lea load-agu-full store-data",
                "add fma lea mul store-data",
                "add agu-simple fma lea load-agu-full mul store-data",
                "load-agu-full mul",
                "add agu-simple load-agu-full",
                "agu-simple",
            )
        )
    ),
    retire_width=8,
)
EIGHT_PORT_KERNEL = KernelModel(
    "eight-port",
    (),
    8,
    (
        UopGroup(25, "load", BIO),
        UopGroup(16, "store", BIO),
        UopGroup(17, "store", OFFSET),
        UopGroup(16, "fma"),
        UopGroup(8, "mul"),
        UopGroup(9, "add"),
        UopGroup(8, "lea"),
    ),
)


@pytest.mark.parametrize("factor, expected", [(1, (17, 12)), (8, (132, 91))])
def test_frontend_bound_eight_port_layout_answers_within_two_states_a_cycle(factor, expected):
    """The frontend binds here, so core_timing's search starts at its bound:
    at most two states per cycle of T_OL."""
    machine = replace(EIGHT_PORTS)
    kernel = unrolled(EIGHT_PORT_KERNEL, factor)
    assert tuple(core_timing(kernel, machine)) == expected
    [(span, states)] = machine._core_layout.spans.values()
    assert span == expected[0] == frontend_bound(kernel, machine)
    assert states <= 2 * span


def test_capability_errors_equal_the_oracle_on_machines_that_lack_capabilities():
    # any uop order: a missing load/store capability wins over an arithmetic
    # one that comes earlier in the kernel
    rng = random.Random(0xCAB)
    kinds = MEMORY_UOPS + tuple((a, None) for a in ARITH_UOPS)
    outcomes = Counter()
    for _ in range(300):
        ports = tuple(PortSpec(i, frozenset(rng.sample(CAPABILITIES, rng.randint(1, 2)))) for i in range(rng.randint(1, 4)))
        machine = replace(HASWELL, ports=ports)
        picks = [rng.choice(kinds) for _ in range(rng.randint(1, 5))]
        kernel = KernelModel("k", (), 8, tuple(UopGroup(rng.randint(1, 3), cls, addressing) for cls, addressing in picks))
        expected = outcome(oracle_timing, kernel, machine)
        assert outcome(core_timing, kernel, machine) == expected, (ports, kernel.uops)
        outcomes[expected.split(" needs ")[-1] if isinstance(expected, str) else "timing"] += 1
    assert set(outcomes) == {"timing", "load-agu-full ports", "address-generation ports", "store-data ports"} | {
        f"{a} ports" for a in ARITH_UOPS
    }


def test_haswell_port_bounds_list_a_kind_once_per_port_choice_inside():
    """Memory kinds: base-addressed store, offset-only store, load; the
    arithmetic kinds: fma/mul on {0, 1}, add on {1}, lea on {1, 5}. A union
    that holds a store's address and data set counts the store twice."""
    layout = HASWELL._core_layout
    assert [(sorted(union), size, members) for union, size, members in layout.nol_bounds] == [
        ([4], 1, (0, 1)),
        ([2, 3], 2, (0, 2)),
        ([2, 3, 4], 3, (0, 0, 1, 2)),
        ([2, 3, 7], 3, (0, 1, 2)),
        ([2, 3, 4, 7], 4, (0, 0, 1, 1, 2)),
    ]
    assert [(sorted(union), size, members) for union, size, members in layout.ol_bounds] == [
        ([1], 1, (4,)),
        ([0, 1], 2, (3, 4)),
        ([1, 5], 2, (4, 5)),
        ([0, 1, 5], 3, (3, 4, 5)),
    ]


def test_a_store_whose_address_and_data_share_one_port_takes_it_twice():
    """The machine lacks add, mul and lea, whose empty port sets give the
    empty union; no bound keeps it, so a kernel without them is timed."""
    ports = (PortSpec(0, frozenset({"load-agu-full", "store-data"})), PortSpec(1, frozenset({"fma"})))
    machine = replace(HASWELL, ports=ports)
    kernel = KernelModel("k", (), 8, (UopGroup(3, "store", "base-index-offset"), UopGroup(1, "fma")))
    assert core_timing(kernel, machine) == oracle_timing(kernel, machine) == (1, 6)
    assert all(size for _, size, _ in machine._core_layout.ol_bounds)


def test_replaced_machines_do_not_reuse_a_cached_layout():
    machine = replace(HASWELL)
    kernels = [unrolled(kernel, 2, ("add",)) for kernel in KERNELS.values()]
    warm = [core_timing(kernel, machine) for kernel in kernels]
    assert "_core_layout" in vars(machine)
    second_data_port = tuple(replace(p, capabilities=p.capabilities | {"store-data"}) if p.id == 6 else p for p in machine.ports)
    for other in (
        replace(machine, ports=second_data_port),
        replace(machine, retire_width=6),
        replace(machine, store_uop_weight=1),
    ):
        assert "_core_layout" not in vars(other)
        timings = [core_timing(kernel, other) for kernel in kernels]
        assert timings == [oracle_timing(kernel, other) for kernel in kernels]
        assert timings != warm


def test_the_layout_is_not_part_of_equality_repr_or_serialization():
    """Nor are the machine's memos of model inputs, transfer cells and
    scaling curves."""
    cold, warm = replace(HASWELL), replace(HASWELL)
    core_timing(KERNELS["schoenauer_triad_opt"], warm)
    scale(KERNELS["schoenauer_triad_opt"], warm, penalty=PenaltyConfig())
    assert "_core_layout" in vars(warm) and "_core_layout" not in vars(cold)
    assert len(vars(warm)["_inputs"]) == 1 and "_inputs" not in vars(cold)
    assert len(vars(warm)["_transfers"]) == 1 and "_transfers" not in vars(cold)
    assert len(vars(warm)["_curves"]) == 1 and "_curves" not in vars(cold)
    assert warm == cold
    assert repr(warm) == repr(cold)
    assert not any(word in repr(warm) for word in ("Layout", "Input", "Curve"))
    assert serialize_machine(warm) == serialize_machine(cold)


def test_warm_core_timing_builds_no_units_problems_unions_or_tables(monkeypatch):
    """A deterministic work count: a repeated query constructs no Unit and
    enumerates no port-set unions or pattern tables, and a machine builds
    each kind set's table at most once, enumerating its unions then only."""
    machine = replace(HASWELL)
    kernels = [unrolled(kernel, 1, extras) for kernel in KERNELS.values() for extras in EXTRAS] + [SEARCHED, SEARCHED_AT_X3]
    built = Counter()  # kind set -> tables built for it
    table_of = scheduler.pattern_table

    def counted_table(kinds, width):
        built[kinds] += 1
        return table_of(kinds, width)

    monkeypatch.setattr(scheduler, "pattern_table", counted_table)
    expected = [core_timing(kernel, machine) for kernel in kernels]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Unit, "__new__", counted("Unit", Unit.__new__))
    for module in (scheduler, _pairing):
        for name in ("port_set_unions", "pattern_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert [core_timing(kernel, machine) for kernel in kernels] == expected
    assert calls == Counter()
    # other counts of the same kind sets are new solves; one that no
    # certificate settles builds its kind set's table unless an earlier one did
    tables = sum(built.values())
    for kernel in kernels:
        core_timing(unrolled(kernel, 3), machine)
    assert calls["Unit"] == 0
    assert calls["pattern_table"] == calls["port_set_unions"] == sum(built.values()) - tables > 0
    assert max(built.values()) == 1
