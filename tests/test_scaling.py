import copy
import gc
import io
import json
import pickle
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecmkit import (
    ECMInput,
    ECMPrediction,
    bandwidth_ceiling,
    bandwidth_signature,
    builtin_haswell,
    builtin_kernels,
    core_timing,
    ecm_input,
    format_cycles,
    format_ecm,
    mem_cycles_per_cl,
    nt_speedup,
    parse_ecm,
    predict,
    scale,
    single_core_performance,
    traffic,
)
from ecmkit import _schema
from ecmkit.cli import run
from ecmkit.kernels import KernelModel, Stream, UopGroup, kernel_from_dict, load_kernel
from ecmkit.machine import CURVE_MEMO_POINTS, MEMO_ENTRIES, CacheBoundary, MachineModel, MemoryModel, NumaConfig
from ecmkit.model import PenaltyConfig, apply_penalty
from ecmkit.scaling import PINNING_POLICIES, PerformancePoint, ScalingCurve
from ecmkit.traffic import TrafficProfile

from oracles import capped_linear_points, fraction_mem_cycles_per_cl, fraction_single_core_performance, saturation_of
from test_cli import kernel_dict
from test_scheduler import FRESH_EXTRAS, unrolled

HASWELL = builtin_haswell()
KERNELS = builtin_kernels()


def _prediction(name, mode=None):
    return predict(ecm_input(KERNELS[name], HASWELL, mode))


def test_single_core_unit_check():
    pred = ECMPrediction(Fraction(1), Fraction(2), Fraction(4), Fraction(8))
    machine_1ghz = MachineModel(
        name="unit",
        frequency_ghz=Fraction(1),
        retire_width=HASWELL.retire_width,
        store_uop_weight=HASWELL.store_uop_weight,
        ports=HASWELL.ports,
        boundaries=HASWELL.boundaries,
        memory=HASWELL.memory,
        numa=HASWELL.numa,
    )
    assert single_core_performance(pred, KERNELS["ddot"], machine_1ghz) == 1000


def test_single_core_ddot():
    mups = single_core_performance(_prediction("ddot"), KERNELS["ddot"], HASWELL)
    assert round(float(mups)) == 1077  # 2.3e3 * 8 / 17.086...; 1076 against the rounded 17.1
    assert abs(float(mups) - 2.3e3 * 8 / 17.1) < 1.0


def test_single_core_stream_triad():
    mups = single_core_performance(_prediction("stream_triad"), KERNELS["stream_triad"], HASWELL)
    assert round(float(mups)) == 501


def test_single_core_rejects_zero_time():
    with pytest.raises(ValueError):
        single_core_performance(ECMPrediction(Fraction(0), Fraction(0), Fraction(0), Fraction(0)), KERNELS["ddot"], HASWELL)


def test_ddot_ceilings_exact():
    ceiling = bandwidth_ceiling(KERNELS["ddot"], HASWELL, "cod")
    assert ceiling.per_domain_mups == 2025
    assert ceiling.per_chip_mups == 4050
    assert not ceiling.compute_bound


def test_stream_triad_domain_ceiling_close_to_measured():
    ceiling = bandwidth_ceiling(KERNELS["stream_triad"], HASWELL, "cod")
    assert ceiling.per_domain_mups == Fraction(27100, 32)
    assert abs(float(ceiling.per_domain_mups) - 831) / 831 < 0.02


def test_compute_bound_kernel_flagged():
    kernel = KernelModel("axpy_reg", (), 8, (UopGroup(2, "fma"),))
    ceiling = bandwidth_ceiling(kernel, HASWELL)
    assert ceiling.compute_bound
    assert ceiling.per_domain_mups is None and ceiling.per_chip_mups is None


def test_scale_first_point_is_single_core():
    for name in ("ddot", "stream_triad", "copy"):
        curve = scale(KERNELS[name], HASWELL, mode="cod", max_cores=14)
        expected = single_core_performance(_prediction(name, "cod"), KERNELS[name], HASWELL)
        assert curve.points[0].performance_mups == expected


def test_scale_ddot_cod_curve():
    curve = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=14)
    assert curve.ceiling_mups == 4050
    assert curve.points[-1].performance_mups == 4050
    assert [float(p.performance_mups) for p in curve.points] == sorted(
        float(p.performance_mups) for p in curve.points
    )
    assert curve.saturation_cores is not None
    for point in curve.points:
        if point.cores >= curve.saturation_cores:
            assert point.bandwidth_bound
    # within one domain the cap is the domain ceiling
    assert curve.points[6].performance_mups == 2025


def test_scale_noncod_single_ceiling():
    curve = scale(KERNELS["stream_triad"], HASWELL, mode="noncod", max_cores=14)
    chip = bandwidth_ceiling(KERNELS["stream_triad"], HASWELL, "noncod").per_chip_mups
    assert curve.ceiling_mups == chip
    assert curve.points[-1].performance_mups == chip


def test_scale_bounded_by_ceiling():
    for mode in ("cod", "noncod"):
        curve = scale(KERNELS["schoenauer_triad"], HASWELL, mode=mode, max_cores=14)
        assert all(p.performance_mups <= curve.ceiling_mups for p in curve.points)


def test_cod_full_chip_equals_twice_domain():
    curve = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=14)
    ceiling = bandwidth_ceiling(KERNELS["ddot"], HASWELL, "cod")
    assert curve.ceiling_mups == 2 * ceiling.per_domain_mups


def test_saturated_modes_agree_with_default_derating():
    # non-clustered chip bandwidth defaults to twice the per-domain value
    cod = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=14)
    noncod = scale(KERNELS["ddot"], HASWELL, mode="noncod", max_cores=14)
    assert cod.ceiling_mups == noncod.ceiling_mups


def test_scale_round_robin_reaches_both_domains_early():
    sequential = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=4, pinning="domain-sequential")
    spread = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=4, pinning="round-robin")
    assert spread.points[-1].performance_mups >= sequential.points[-1].performance_mups


@pytest.mark.parametrize("mode", ["cod", "noncod"])
@pytest.mark.parametrize("pinning", ["domain-sequential", "round-robin"])
@pytest.mark.parametrize("penalty", [None, PenaltyConfig()])
def test_scale_points_follow_the_capped_linear_formula(mode, pinning, penalty):
    numa = HASWELL.numa
    for kernel in KERNELS.values():
        curve = scale(kernel, HASWELL, mode=mode, pinning=pinning, penalty=penalty)
        pred = predict(ecm_input(kernel, HASWELL, mode))
        if penalty is not None:
            pred = apply_penalty(pred, kernel, penalty)
        p1 = single_core_performance(pred, kernel, HASWELL)
        ceiling = bandwidth_ceiling(kernel, HASWELL, mode)
        expected = []
        for n in range(1, numa.total_cores + 1):
            if ceiling.compute_bound:
                expected.append((n, n * p1, False))
                continue
            if mode == "noncod":
                cap = ceiling.per_chip_mups
            elif pinning == "domain-sequential":
                cap = ceil(n / numa.cores_per_domain) * ceiling.per_domain_mups
            else:
                cap = min(n, numa.n_domains) * ceiling.per_domain_mups
            expected.append((n, min(n * p1, cap), n * p1 >= cap))
        assert [(p.cores, p.performance_mups, p.bandwidth_bound) for p in curve.points] == expected, kernel.name
        assert curve.ceiling_mups == (None if ceiling.compute_bound else cap)


def test_scale_point_exactly_at_the_ceiling_is_bandwidth_bound():
    # 73.6 GB/s chip-wide: ddot's T_L3Mem is 2 * 64 * 2.3 / 73.6 = 4, so one
    # core does 2300 * 8 / 12 MUp/s and three reach the 73 600 / 16 = 4600
    # MUp/s ceiling exactly
    machine = replace(HASWELL, memory=MemoryModel(default_bandwidth_gbs=Fraction("36.8"), bandwidth_table={}))
    curve = scale(KERNELS["ddot"], machine, mode="noncod", max_cores=4)
    assert [p.performance_mups for p in curve.points] == [Fraction(4600, 3) * n for n in (1, 2)] + [4600, 4600]
    assert [p.bandwidth_bound for p in curve.points] == [False, False, True, True]
    assert curve.saturation_cores == 3


def test_scale_rejects_out_of_range_cores():
    with pytest.raises(ValueError):
        scale(KERNELS["ddot"], HASWELL, max_cores=0)
    with pytest.raises(ValueError):
        scale(KERNELS["ddot"], HASWELL, max_cores=15)


def test_scale_rejects_an_unknown_pinning():
    with pytest.raises(ValueError) as raised:
        scale(KERNELS["ddot"], HASWELL, pinning="scatter")
    assert str(raised.value) == f"pinning must be one of {PINNING_POLICIES}"


def test_nt_speedup_ratios_exact():
    assert nt_speedup(KERNELS["stream_triad"], HASWELL).volume_ratio == Fraction(4, 3)
    assert nt_speedup(KERNELS["schoenauer_triad"], HASWELL).volume_ratio == Fraction(5, 4)
    assert nt_speedup(KERNELS["store"], HASWELL).volume_ratio == 2


def test_nt_speedup_ceiling_ratio_matches_volume_ratio():
    estimate = nt_speedup(KERNELS["stream_triad"], HASWELL, "cod")
    assert estimate.nontemporal.per_domain_mups / estimate.regular.per_domain_mups == Fraction(4, 3)


def test_nt_speedup_requires_write_stream():
    with pytest.raises(ValueError):
        nt_speedup(KERNELS["ddot"], HASWELL)


positive = st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**6))
frequency = st.one_of(st.integers(1, 5), positive)


@settings(max_examples=50, deadline=None)
@given(positive, frequency, st.sampled_from((1, 2, 4, 8, 16, 32, 64)))
def test_single_core_performance_equals_the_fraction_operator_oracle(t_mem, f, element_bytes):
    kernel = replace(KERNELS["ddot"], element_bytes=element_bytes)
    pred = ECMPrediction(Fraction(1), Fraction(1), Fraction(1), t_mem)
    mups = single_core_performance(pred, kernel, replace(HASWELL, frequency_ghz=f))
    assert mups == fraction_single_core_performance(t_mem, f, 64 // element_bytes)
    assert type(mups) is Fraction


def test_curves_stay_exact_for_int_inputs():
    """Plain operators on ints would give floats: the single-core figure and
    every point stay Fractions equal to the Fraction-operator oracle."""
    machine = replace(HASWELL, frequency_ghz=2, memory=MemoryModel(default_bandwidth_gbs=27, noncod_derating=1))
    pred = ECMPrediction(2, 4, 8, 17)
    mups = single_core_performance(pred, KERNELS["ddot"], machine)
    assert type(mups) is Fraction and mups == fraction_single_core_performance(17, 2, 8)
    for mode in ("cod", "noncod"):
        for pinning in PINNING_POLICIES:
            curve = scale(KERNELS["ddot"], machine, mode=mode, pinning=pinning)
            expected, last_cap = oracle_curve(KERNELS["ddot"], machine, mode, pinning, None, 14)
            assert [(p.cores, p.performance_mups, p.bandwidth_bound) for p in curve.points] == expected
            assert all(type(p.performance_mups) is Fraction for p in curve.points)
            assert type(curve.ceiling_mups) is Fraction and curve.ceiling_mups == last_cap


def oracle_curve(kernel, machine, mode, pinning, penalty, max_cores):
    """The capped-linear points from the package's prediction and a ceiling
    recomputed on Fraction operators."""
    pred = predict(ecm_input(kernel, machine, mode))
    if penalty is not None:
        pred = apply_penalty(pred, kernel, penalty)
    p1 = fraction_single_core_performance(pred.t_mem, machine.frequency_ghz, 64 // kernel.element_bytes)
    bytes_per_it = traffic(kernel).mem_bytes_per_iteration
    numa, memory = machine.numa, machine.memory
    per_domain = memory.lookup(bandwidth_signature(kernel)) * Fraction(1000) / bytes_per_it if bytes_per_it else None

    def cap_of_cores(n):
        if per_domain is None:
            return None
        if mode == "noncod":
            return per_domain * numa.n_domains * memory.noncod_derating
        if pinning == "domain-sequential":
            return ceil(n / numa.cores_per_domain) * per_domain
        return min(n, numa.n_domains) * per_domain

    return capped_linear_points(p1, cap_of_cores, max_cores), cap_of_cores(max_cores)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(KERNELS)),
    frequency,
    positive,
    st.sampled_from((Fraction(1), Fraction(9, 10), Fraction(3, 2))),
    st.integers(1, 4),
    st.integers(1, 8),
    st.sampled_from(("cod", "noncod")),
    st.sampled_from(("domain-sequential", "round-robin")),
    st.sampled_from((None, PenaltyConfig())),
    st.data(),
)
def test_scale_equals_the_capped_linear_oracle(name, f, gbs, derating, domains, per_domain, mode, pinning, penalty, data):
    memory = MemoryModel(default_bandwidth_gbs=gbs, noncod_derating=derating)
    machine = replace(HASWELL, frequency_ghz=f, memory=memory, numa=NumaConfig(domains, per_domain, True))
    max_cores = data.draw(st.integers(1, domains * per_domain))
    curve = scale(KERNELS[name], machine, mode=mode, max_cores=max_cores, pinning=pinning, penalty=penalty)
    expected, last_cap = oracle_curve(KERNELS[name], machine, mode, pinning, penalty, max_cores)
    assert [(p.cores, p.performance_mups, p.bandwidth_bound) for p in curve.points] == expected
    assert curve.saturation_cores == saturation_of(expected)
    assert curve.ceiling_mups == last_cap
    assert all(type(p.performance_mups) is Fraction for p in curve.points)
    assert last_cap is None or type(curve.ceiling_mups) is Fraction


def test_saturation_is_where_the_points_stay_bound_not_where_they_first_bind():
    """With 120 GB/s per domain, ddot is bound at 5 to 7 cores, falls below
    the cap at 8, where the second domain opens, and is bound from 9 on."""
    machine = replace(HASWELL, memory=MemoryModel(default_bandwidth_gbs=120))
    curve = scale(KERNELS["ddot"], machine, mode="cod", pinning="domain-sequential")
    assert "".join("B" if p.bandwidth_bound else "." for p in curve.points) == "....BBB.BBBBBB"
    assert curve.saturation_cores == 9


@settings(max_examples=30, deadline=None)
@given(frequency, st.integers(2, 14))
def test_scale_point_exactly_at_the_cap_is_bound_at_any_frequency(f, n):
    # ddot moves 2 lines over the memory interface per line of work: 2 * 64 f / B
    # cycles on top of T_nOL + 2 + 4 = 8, so n * p1 = n * 8000 f / (8 + 128 f / B)
    # equals the chip cap 1000 B / 16 exactly when B = 16 f (n - 1)
    chip = 16 * Fraction(f) * (n - 1)
    machine = replace(
        HASWELL, frequency_ghz=Fraction(f), memory=MemoryModel(default_bandwidth_gbs=chip / 2, bandwidth_table={})
    )
    curve = scale(KERNELS["ddot"], machine, mode="noncod", max_cores=14)
    expected, cap = oracle_curve(KERNELS["ddot"], machine, "noncod", "domain-sequential", None, 14)
    assert [(p.cores, p.performance_mups, p.bandwidth_bound) for p in curve.points] == expected
    at_cap = curve.points[n - 1]
    assert at_cap.bandwidth_bound and at_cap.performance_mups == cap == n * curve.points[0].performance_mups
    assert not curve.points[n - 2].bandwidth_bound


def test_one_mode_resolution_for_every_query():
    clustered = HASWELL
    flat = replace(HASWELL, numa=replace(HASWELL.numa, cod_enabled=False))
    assert (clustered.resolve_mode(None), flat.resolve_mode(None)) == ("cod", "noncod")
    assert flat.resolve_mode("cod") == "cod"
    ddot = KERNELS["ddot"]
    assert scale(ddot, flat).mode == "noncod"
    assert bandwidth_ceiling(ddot, flat) == bandwidth_ceiling(ddot, HASWELL, "noncod")
    queries = [
        lambda: HASWELL.resolve_mode("numa"),
        lambda: HASWELL.bandwidth((2, 0, 0), "numa"),
        lambda: bandwidth_ceiling(ddot, HASWELL, "numa"),
        lambda: scale(ddot, HASWELL, mode="numa"),
        lambda: ecm_input(ddot, HASWELL, "numa"),
    ]
    for query in queries:
        with pytest.raises(ValueError) as raised:
            query()
        assert str(raised.value) == "mode must be 'cod' or 'noncod', got 'numa'"


def sweep_queries():
    """The 80 sweep-style queries: every built-in kernel x mode x penalty on
    or off x pinning."""
    config = PenaltyConfig()
    return [
        (kernel, mode, penalty, pinning)
        for kernel in KERNELS.values()
        for mode in ("cod", "noncod")
        for penalty in (None, config)
        for pinning in PINNING_POLICIES
    ]


def calls_by_code(counted, run):
    """run() under a profile hook that counts calls of the code objects in
    `counted` under their names; returns its answer and the counts.
    `counted` maps a code object to its name, as a dict or as a function
    that gives None for a code object not counted. The garbage collector
    is off meanwhile: a collection would run the Python-level gc callbacks
    other modules register (hypothesis times every collection), and when one
    falls in run() depends on what the process allocated before it."""
    calls = Counter()
    name_of = counted.get if isinstance(counted, dict) else counted

    def profile(frame, event, arg):
        if event == "call" and (name := name_of(frame.f_code)) is not None:
            calls[name] += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        return run(), calls
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()


def test_warm_sweep_queries_run_no_python_init():
    """The records a query computes are named tuples, so 80 warm sweep-style
    queries (every built-in kernel x mode x penalty on/off x pinning) run no
    `__init__` written in Python, such as a dataclass's. This counts work,
    not time, so the host's speed does not matter."""
    queries = sweep_queries()
    assert len(queries) == 80

    def run(kernel, mode, penalty, pinning):
        scale(kernel, HASWELL, mode, HASWELL.numa.total_cores, pinning, penalty)
        inp = ecm_input(kernel, HASWELL, mode)
        pred = predict(inp)
        shown = pred if penalty is None else apply_penalty(pred, kernel, penalty)
        for value in (inp, pred, shown):
            parse_ecm(format_ecm(value))

    for query in queries:
        run(*query)
    inits = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__init__":
            inits[type(frame.f_locals.get("self")).__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for query in queries:
            run(*query)
    finally:
        sys.setprofile(previous)
    assert dict(inits) == {}


def test_warm_sweep_queries_build_a_fraction_only_per_decimal_cell():
    """A work count: after one pass of the 80 sweep-style queries, a second
    pass that also parses each query's three shorthand texts calls
    Fraction.__new__ once per cell with fraction digits and never else. The
    memos and kept values hold every computed cell, and parse_ecm reads a
    whole cell as an int. Each text has one such cell, the memory cell: 240
    calls of 1 040 cells (one call per cell when whole cells were Fractions)."""
    machine = replace(HASWELL)
    queries = sweep_queries()

    def run():
        answers = sweep_answers(machine, queries)
        return answers, [parse_ecm(text) for answer in answers for text in answer[4:]]

    expected = run()
    texts = [text for answer in expected[0] for text in answer[4:]]
    cells = sum(len(value) for value in expected[1])
    decimal_cells = sum(text.count(".") for text in texts)
    assert (len(texts), cells, decimal_cells) == (240, 1040, 240)
    got, calls = calls_by_code({Fraction.__new__.__code__: "Fraction"}, run)
    assert got == expected
    assert calls == Counter(Fraction=decimal_cells)


# ---------------------------------------------------------------------------
# cold kernel queries: a new kernel file each


def fresh_kernels() -> list[KernelModel]:
    """The kernels of the fresh benchmark workload, the built-ins without
    non-temporal stores unrolled x{1,2,4,8} with each of FRESH_EXTRAS."""
    kernels = [
        replace(unrolled(kernel, factor, extras), name=f"{name}_x{factor}_{'_'.join(extras)}")
        for name, kernel in sorted(KERNELS.items()) if not any(s.nontemporal for s in kernel.streams)
        for factor in (1, 2, 4, 8) for extras in FRESH_EXTRAS
    ]
    assert len(kernels) == 160
    return kernels


def fresh_kernel_files(directory) -> dict:
    """fresh_kernels written as kernel files into `directory`: {path: kernel}."""
    files = {}
    for fresh in fresh_kernels():
        path = directory / f"{fresh.name}.json"
        path.write_text(json.dumps(kernel_dict(fresh)))
        files[path] = fresh
    return files


def test_loading_fresh_kernel_files_forms_no_loader_message(tmp_path):
    """A work count: loading the 160 fresh kernel files reads each object
    once, so `_schema.fields` runs once per file, stream and uop group, and
    no exception passes through the loader, `fields` or `check`, where a
    message would be formed."""
    files = fresh_kernel_files(tmp_path)
    counted = {code: code.co_name for code in (_schema.fields.__code__, _schema.check.__code__,
                                               kernel_from_dict.__code__)}
    calls, raised = Counter(), Counter()

    def on_exception(frame, event, arg):
        if event == "exception":
            raised[counted[frame.f_code]] += 1
        return on_exception

    def trace(frame, event, arg):
        if frame.f_code in counted:
            calls[counted[frame.f_code]] += 1
            return on_exception
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        loaded = [load_kernel(path) for path in files]
    finally:
        sys.settrace(previous)
    assert loaded == list(files.values())
    objects = sum(1 + len(kernel.streams) + len(kernel.uops) for kernel in loaded)
    assert calls["fields"] == objects == 1080 and calls["kernel_from_dict"] == len(files), calls
    assert raised == Counter()


# Fraction.__new__ calls of one cold pass over the fresh kernel files; 1 400
# when every prediction cell and cycles per line was a Fraction, 418 when
# each input miss built its own transfer cells
COLD_PASS_FRACTIONS = 164
# Python-level calls of the same pass, in all and in the modules named; 20 239
# in all, 513 in functools and 1 868 in fractions while kept values were
# functools.cached_property values and the memory level was summed and
# compared with Fraction operators; 15 912 in all and 1 314 in fractions while
# the default penalty cycles were Fraction(1), whose numerator and denominator
# are Python-level properties; 15 592 in all while each input record ran a
# dataclass `__post_init__` after its generated `__init__`. The pass makes
# 14 510 in the suite and 14 511 alone: a cold `numbers.Rational` subclass
# cache adds one `__subclasscheck__`, so the count moves with what the process
# ran before. A change may lower these, never raise them.
COLD_PASS_CALLS = {"all": 14_511, "functools": 0, "fractions": 994}


def cold_pass_answers(files, penalty) -> list[tuple[str, str, str]]:
    """The three shorthands of each kernel file's input, prediction and
    penalized prediction (PenaltyConfig `penalty`), loaded and computed on a
    new machine."""
    machine, answers = replace(HASWELL), []
    for path in files:
        kernel = load_kernel(path)
        inp = ecm_input(kernel, machine)
        pred = predict(inp)
        adjusted = apply_penalty(pred, kernel, penalty)
        answers.append((format_ecm(inp), format_ecm(pred), format_ecm(adjusted)))
    return answers


def fresh_shorthands(files, penalty) -> list[tuple[str, str, str]]:
    """cold_pass_answers of the kernels the files hold, on the shared machine."""
    return [
        (format_ecm(inp), format_ecm(predict(inp)), format_ecm(apply_penalty(predict(inp), kernel, penalty)))
        for kernel in files.values() for inp in [ecm_input(kernel, HASWELL)]
    ]


def test_a_cold_pass_over_fresh_kernel_files_builds_few_fractions(tmp_path):
    """A work count: on a new machine, loading each of the 160 fresh kernel
    files, then its input, prediction, penalized prediction and their three
    shorthands calls Fraction.__new__ at most COLD_PASS_FRACTIONS times.
    Whole cycles per line, core cycles and penalty cycles stay ints, so the
    Fractions are the memory cells and the sums that take one in."""
    files, penalty = fresh_kernel_files(tmp_path), PenaltyConfig()
    got, calls = calls_by_code({Fraction.__new__.__code__: "Fraction"}, lambda: cold_pass_answers(files, penalty))
    assert got == fresh_shorthands(files, penalty)
    assert calls["Fraction"] <= COLD_PASS_FRACTIONS


def test_a_cold_pass_over_fresh_kernel_files_makes_few_python_calls(tmp_path):
    """A work count: the cold pass above makes at most COLD_PASS_CALLS
    Python-level calls (profile "call" events, a generator's resumptions
    included), none of them in functools, as kept values are read from an
    instance `__dict__` and missed without `functools.cached_property`, and
    at most COLD_PASS_CALLS["fractions"] in fractions, as the memory level
    adds and compares the memory cell as n / d in ints."""
    files, penalty = fresh_kernel_files(tmp_path), PenaltyConfig()
    got, calls = calls_by_code(lambda code: Path(code.co_filename).stem, lambda: cold_pass_answers(files, penalty))
    assert got == fresh_shorthands(files, penalty)
    counts = {"all": sum(calls.values()), "functools": calls["functools"], "fractions": calls["fractions"]}
    assert all(counts[name] <= bound for name, bound in COLD_PASS_CALLS.items()), counts


def test_a_cold_fresh_pass_builds_transfer_cells_once_per_stream_tally_and_mode():
    """A work count: on a new machine, the inputs of the 160 fresh kernels
    miss the input memo 70 times (a miss per distinct core timing and stream
    tally), but call traffic and the machine's bandwidth only on the 7
    misses of the transfer memo, once per stream tally. A second pass in
    the other mode misses both memos as often again. Every input equals the
    Fraction-operator oracle's in its mode."""
    machine = replace(HASWELL)
    kernels = fresh_kernels()
    counted = {traffic.__code__: "traffic", MachineModel.bandwidth.__code__: "bandwidth"}
    for passes, mode in enumerate((machine.resolve_mode(None), "noncod"), 1):
        inputs, calls = calls_by_code(counted, lambda: [ecm_input(kernel, machine, mode) for kernel in kernels])
        assert inputs == [oracle_input(kernel, machine, mode) for kernel in kernels]
        assert calls == Counter(traffic=7, bandwidth=7)
        assert (machine._inputs.misses, machine._transfers.misses) == (70 * passes, 7 * passes)


# ---------------------------------------------------------------------------
# the per-machine curve memo


@pytest.mark.parametrize("max_cores", [True, False, 14.0, 2.5, "3", Fraction(2)])
def test_scale_rejects_a_max_cores_that_is_not_an_int(max_cores):
    with pytest.raises(ValueError) as raised:
        scale(KERNELS["ddot"], HASWELL, max_cores=max_cores)
    assert str(raised.value) == f"max_cores must be in 1..14, got {max_cores!r}"


def memo_kernels():
    """Kernels whose curves share cells and ceilings but differ in element
    size or loading streams: two reads and one read-modify-write stream move
    the same lines and bytes, and a kernel without streams is compute bound
    at every element size."""
    streams = {
        "none": (),
        "two reads": (Stream("a", "read"), Stream("b", "read")),
        "readwrite": (Stream("a", "readwrite"),),
        "write": (Stream("a", "write"),),
        "read nt": (Stream("a", "read"), Stream("b", "write", True)),
    }
    uops = {
        "load": (UopGroup(2, "load", "base-index-offset"),),
        "fma": (UopGroup(2, "load", "base-index-offset"), UopGroup(1, "store", "offset-only"), UopGroup(3, "fma")),
    }
    return [KernelModel(f"{s}/{u}/{size}", streams[s], size, uops[u]) for s in streams for u in uops for size in (4, 8)]


def outcome_of(query):
    try:
        return query()
    except ValueError as exc:
        return f"error: {exc}"


def test_warm_machines_answer_every_query_as_a_freshly_built_machine_does():
    """Queries interleaved on two warm machines, each answer equal to the same
    query's on a freshly built equal machine: kernels with equal cells and
    ceilings but other element sizes or loading streams, both modes, both
    pinnings, penalties with default, other and negative cycles (which
    raise) and two core counts, in a random order, then again in another."""
    rng = random.Random(0xC0DE)
    flat = MemoryModel(default_bandwidth_gbs=Fraction("27.1"))  # every signature at one bandwidth
    machines = [replace(HASWELL), replace(HASWELL, memory=flat)]
    penalties = [None, PenaltyConfig(), PenaltyConfig(Fraction(1, 2)), PenaltyConfig(Fraction(-40))]
    queries = [
        (machine, kernel, mode, max_cores, pinning, penalty)
        for machine in machines
        for kernel in memo_kernels()
        for mode in ("cod", "noncod")
        for max_cores in (3, None)
        for pinning in PINNING_POLICIES
        for penalty in penalties
    ]
    expected = [outcome_of(lambda: scale(kernel, replace(machine), *rest)) for machine, kernel, *rest in queries]
    outcomes = Counter()
    order = list(range(len(queries)))
    for _ in range(2):
        rng.shuffle(order)
        for i in order:
            machine, kernel, *rest = queries[i]
            got = outcome_of(lambda: scale(kernel, machine, *rest))
            assert got == expected[i], (kernel.name, *rest)
            outcomes["error" if isinstance(got, str) else "bound" if got.ceiling_mups else "compute"] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_a_full_memo_is_cleared_and_holds_at_most_its_bound_of_points():
    machine = replace(HASWELL, numa=NumaConfig(64, 64, True))
    assert machine.numa.total_cores == 4096
    curves = machine._curves
    held = []
    for kernel in ("ddot", "copy", "stream_triad"):
        for mode in ("cod", "noncod"):
            for pinning in PINNING_POLICIES:
                scale(KERNELS[kernel], machine, mode, None, pinning)
                held.append(sum(len(curve.points) for curve in curves.values()))
                assert 4096 <= held[-1] <= CURVE_MEMO_POINTS
    assert held[:5] == [4096, 8192, 12288, 16384, 4096]
    assert (curves.misses, curves.clears) == (12, 2)


def test_a_memo_dies_with_its_machine():
    """No process-wide cache holds a machine's curves or inputs: both memos
    die with their machine, and in-process CLI runs, each building its own
    machine, leave no curve, input or prediction kept by an input behind."""
    class Probe:
        pass

    machine = builtin_haswell()
    scale(KERNELS["ddot"], machine)
    machine._curves["probe"] = curve_probe = Probe()
    machine._inputs["probe"] = input_probe = Probe()
    held = [weakref.ref(curve_probe), weakref.ref(input_probe)]
    del machine, curve_probe, input_probe
    gc.collect()
    assert [ref() for ref in held] == [None, None]
    records = (ScalingCurve, ECMInput, ECMPrediction)
    before = {id(o) for o in gc.get_objects() if isinstance(o, records)}
    for name in sorted(KERNELS) * 2:
        assert run(["scale", "-k", name, "--penalty"], out=io.StringIO()) == 0
    gc.collect()
    assert [o for o in gc.get_objects() if isinstance(o, records) and id(o) not in before] == []


@pytest.mark.parametrize("field", ["numa", "frequency_ghz", "memory"])
def test_replaced_machines_start_with_an_empty_memo(field):
    warm = replace(HASWELL)
    for kernel in KERNELS.values():
        scale(kernel, warm, "cod", None, "round-robin", PenaltyConfig())
    assert len(warm._curves) == len(KERNELS)
    value = {
        "numa": NumaConfig(3, 4, True),
        "frequency_ghz": Fraction("3.1"),
        "memory": MemoryModel(default_bandwidth_gbs=Fraction("19.7"), noncod_derating=Fraction(9, 10)),
    }[field]
    other = replace(warm, **{field: value})
    assert "_curves" not in vars(other)
    changed = 0
    for kernel in KERNELS.values():
        for mode in ("cod", "noncod"):
            curve = scale(kernel, other, mode, None, "round-robin", PenaltyConfig())
            expected, last_cap = oracle_curve(kernel, other, mode, "round-robin", PenaltyConfig(), other.numa.total_cores)
            assert [(p.cores, p.performance_mups, p.bandwidth_bound) for p in curve.points] == expected
            assert curve.ceiling_mups == last_cap
            changed += mode == "cod" and curve != scale(kernel, warm, mode, None, "round-robin", PenaltyConfig())
    assert changed == len(KERNELS)


def test_warm_scale_queries_make_no_prediction_penalty_or_points():
    """A deterministic work count: after one pass of the 80 sweep-style
    queries, a second pass on the same machine makes no prediction, penalty
    or single-core call, takes no bandwidth ceiling and builds no point or
    curve, but still makes one ecm_input call per query; no memo of the
    machine, its layout or its predictions counts a miss or a clear."""
    machine = replace(HASWELL)
    queries = sweep_queries()
    total = machine.numa.total_cores

    def run():
        return [scale(kernel, machine, mode, total, pinning, penalty) for kernel, mode, penalty, pinning in queries]

    expected = run()
    counts = memo_counts(machine)
    counted = {
        ecm_input.__code__: "ecm_input",
        bandwidth_ceiling.__code__: "bandwidth_ceiling",
        predict.__code__: "predict",
        apply_penalty.__code__: "apply_penalty",
        single_core_performance.__code__: "single_core_performance",
        PerformancePoint.__new__.__code__: "PerformancePoint",
        ScalingCurve.__new__.__code__: "ScalingCurve",
    }
    got, calls = calls_by_code(counted, run)
    assert got == expected
    assert calls == Counter(ecm_input=80)
    assert memo_counts(machine) == counts


# ---------------------------------------------------------------------------
# the per-machine input memo


def oracle_input(kernel, machine, mode):
    """The five cells from the core timing, the traffic and the bandwidth
    table, on Fraction operators."""
    timing = core_timing(kernel, machine)
    prof = traffic(kernel)
    gbs = machine.memory.lookup(bandwidth_signature(kernel))
    if mode == "noncod":
        gbs = gbs * machine.numa.n_domains * machine.memory.noncod_derating
    widths = {b.name: b.bytes_per_cycle for b in machine.boundaries}
    return ECMInput(
        Fraction(timing.t_ol),
        Fraction(timing.t_nol),
        prof.cls_l1l2 * Fraction(64, widths["L1L2"]),
        prof.cls_l2l3 * Fraction(64, widths["L2L3"]),
        prof.cls_l3mem * fraction_mem_cycles_per_cl(gbs, machine.frequency_ghz),
    )


def sweep_answers(machine, queries) -> list:
    """Each query's curve, input, prediction, shown prediction and the
    shorthand of all three, as a sweep op asks for them."""
    answers = []
    for kernel, mode, penalty, pinning in queries:
        curve = scale(kernel, machine, mode, machine.numa.total_cores, pinning, penalty)
        inp = ecm_input(kernel, machine, mode)
        pred = predict(inp)
        shown = pred if penalty is None else apply_penalty(pred, kernel, penalty)
        answers.append((curve, inp, pred, shown, format_ecm(inp), format_ecm(pred), format_ecm(shown)))
    return answers


def machine_memos(machine) -> list:
    """The memos of a machine and of its core layout."""
    layout = machine._core_layout
    return [machine._inputs, machine._transfers, machine._curves, layout.spans, layout.tables, layout.caps]


def memo_counts(machine) -> list[tuple[int, int]]:
    """(misses, clears) of each memo of a machine, of its core layout and of
    the predictions its stored inputs keep."""
    predictions = [vars(inp)["_prediction"] for inp in machine._inputs.values() if "_prediction" in vars(inp)]
    memos = machine_memos(machine) + [vars(pred)["_penalized"] for pred in predictions if "_penalized" in vars(pred)]
    assert len(memos) > 5
    return [(memo.misses, memo.clears) for memo in memos]


def test_warm_ecm_input_builds_no_input_or_traffic_and_reads_no_bandwidth():
    """A deterministic work count: after one pass of the 80 sweep-style
    queries, a second pass on the same machine builds no ECMInput or
    TrafficProfile, calls neither traffic, the machine's bandwidth, the
    bandwidth ceilings nor the transfer and memory cycles per cache line,
    and makes exactly two core_timing calls per query, one from scale's
    ecm_input and one from the query's own, as the benchmark's traced sweep
    run requires; no memo counts a miss or a clear."""
    machine = replace(HASWELL)
    queries = sweep_queries()
    expected = sweep_answers(machine, queries)
    counts = memo_counts(machine)
    counted = {
        ECMInput.__new__.__code__: "ECMInput",
        TrafficProfile.__new__.__code__: "TrafficProfile",
        traffic.__code__: "traffic",
        MachineModel.bandwidth.__code__: "bandwidth",
        bandwidth_ceiling.__code__: "bandwidth_ceiling",
        mem_cycles_per_cl.__code__: "mem_cycles_per_cl",
        MachineModel.cycles_per_cl.__code__: "cycles_per_cl",
        core_timing.__code__: "core_timing",
    }
    got, calls = calls_by_code(counted, lambda: sweep_answers(machine, queries))
    assert got == expected
    assert all(a[1] is b[1] for a, b in zip(got, expected))
    assert calls == Counter(core_timing=2 * len(queries))
    assert memo_counts(machine) == counts


def test_warm_sweep_queries_recompute_no_prediction_penalty_or_shorthand():
    """A deterministic work count: after one pass of the 80 sweep-style
    queries, a second pass on the same machine runs the prediction
    arithmetic, the penalty arithmetic and the shorthand rendering zero
    times, since the input keeps its prediction and shorthand and the
    prediction its shorthand and penalized predictions; predict,
    apply_penalty and format_ecm are still called once per query, once per
    penalized query and three times per query; no memo counts a miss or a
    clear."""
    machine = replace(HASWELL)
    queries = sweep_queries()
    expected = sweep_answers(machine, queries)
    counts = memo_counts(machine)
    counted = {
        predict.__code__: "predict",
        apply_penalty.__code__: "apply_penalty",
        format_ecm.__code__: "format_ecm",
        ECMInput._prediction.func.__code__: "prediction arithmetic",
        ECMPrediction._penalize.__code__: "penalty arithmetic",
        ECMInput._shorthand.func.__code__: "input shorthand",
        ECMPrediction._shorthand.func.__code__: "prediction shorthand",
        format_cycles.__code__: "format_cycles",
        ECMPrediction.__new__.__code__: "ECMPrediction",
    }
    got, calls = calls_by_code(counted, lambda: sweep_answers(machine, queries))
    assert got == expected
    assert all(a[2] is b[2] and a[3] is b[3] for a, b in zip(got, expected))
    assert calls == Counter(predict=80, apply_penalty=40, format_ecm=240)
    assert memo_counts(machine) == counts


COPIERS = {"pickle": lambda machine: pickle.loads(pickle.dumps(machine)), "deepcopy": copy.deepcopy, "copy": copy.copy}


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_cold_and_warm_machines_survive_pickle_and_copy(copier):
    """A copy of a machine equals it, shows its repr, and answers every
    sweep-style query as it does. A copy starts with no memo, even of a warm
    machine, and answering the queries fills its memos to the warm
    machine's misses, clears and entries."""
    queries = sweep_queries()
    cold, warm = replace(HASWELL), replace(HASWELL)
    sweep_answers(warm, queries)
    state = [(memo.misses, memo.clears, list(memo)) for memo in machine_memos(warm)]
    cold_copy, warm_copy = COPIERS[copier](cold), COPIERS[copier](warm)
    assert "_inputs" not in vars(cold_copy)
    for machine, other in ((cold, cold_copy), (warm, warm_copy)):
        assert other == machine
        assert repr(other) == repr(machine)
        assert sweep_answers(other, queries) == sweep_answers(machine, queries)
    assert [(memo.misses, memo.clears, list(memo)) for memo in machine_memos(warm_copy)] == state


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_copies_carry_no_kept_value(copier):
    """A copy of a warm machine, or of a kernel whose stream tally was read,
    is rebuilt from its fields and holds none of the values they keep; a
    warm machine pickles to the bytes of a cold one."""
    cold, warm, kernel = replace(HASWELL), replace(HASWELL), replace(KERNELS["stream_triad"])
    sweep_answers(warm, sweep_queries())
    assert kernel._tally and {"_core_layout", "_inputs", "_transfers", "_curves"} <= vars(warm).keys()
    for record in (warm, kernel):
        twin = COPIERS[copier](record)
        assert twin == record
        assert not vars(twin).keys() & {"_core_layout", "_inputs", "_transfers", "_curves", "_tally"}
    assert pickle.dumps(warm) == pickle.dumps(cold)


MEMO_FIELDS = {
    "memory": MemoryModel(default_bandwidth_gbs=Fraction("19.7"), noncod_derating=Fraction(9, 10)),
    "frequency_ghz": Fraction("3.1"),
    "boundaries": (CacheBoundary("L1L2", 32), CacheBoundary("L2L3", 16)),
    "numa": NumaConfig(3, 4, True),
    # fma on port 1 only
    "ports": tuple(replace(p, capabilities=p.capabilities - {"fma"}) if p.id == 0 else p for p in HASWELL.ports),
}


@pytest.mark.parametrize("field", sorted(MEMO_FIELDS))
def test_replaced_machines_start_with_empty_input_and_curve_memos(field):
    """A machine made by `replace` from a warm one shares neither memo, and
    answers every input and curve as a freshly built machine does."""
    warm = replace(HASWELL)
    for kernel in KERNELS.values():
        for mode in ("cod", "noncod"):
            scale(kernel, warm, mode, None, "round-robin", PenaltyConfig())
    assert len(warm._inputs) == 2 * len(KERNELS) and len(warm._curves) == 2 * len(KERNELS)
    other = replace(warm, **{field: MEMO_FIELDS[field]})
    assert "_inputs" not in vars(other) and "_curves" not in vars(other)
    changed = 0
    for kernel in KERNELS.values():
        for mode in ("cod", "noncod"):
            inp = ecm_input(kernel, other, mode)
            assert inp == oracle_input(kernel, other, mode) == ecm_input(kernel, replace(other), mode)
            curve = scale(kernel, other, mode, None, "round-robin", PenaltyConfig())
            assert curve == scale(kernel, replace(other), mode, None, "round-robin", PenaltyConfig())
            changed += inp != ecm_input(kernel, warm, mode)
    assert changed > 0


WARM = replace(HASWELL)
memory_uops = st.tuples(
    st.integers(1, 4), st.sampled_from(("load", "store")), st.sampled_from(("base-index-offset", "offset-only"))
).map(lambda t: UopGroup(*t))
arithmetic_uops = st.tuples(st.integers(1, 4), st.sampled_from(("fma", "add", "mul", "lea"))).map(lambda t: UopGroup(*t))
stream_kinds = st.sampled_from((("read", False), ("readwrite", False), ("write", False), ("write", True)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.lists(stream_kinds, max_size=4), st.sampled_from((4, 8))), min_size=1, max_size=3),
    st.lists(st.one_of(memory_uops, arithmetic_uops), min_size=1, max_size=4),
    st.permutations((None, "cod", "noncod")),
    st.sampled_from((None, PenaltyConfig())),
)
def test_a_warm_machine_answers_as_a_cold_one(mixes, uops, modes, penalty):
    """One machine, warm from every earlier query, gives the input and the
    curve a freshly built machine gives: kernels with one uop list but
    random stream mixes and element sizes, each in every mode. Each input
    equals the Fraction-operator oracle."""
    for i, (kinds, element_bytes) in enumerate(mixes):
        streams = tuple(Stream(f"s{j}", access, nt) for j, (access, nt) in enumerate(kinds))
        kernel = KernelModel(f"k{i}", streams, element_bytes, tuple(uops))
        for mode in modes:
            cold = replace(HASWELL)
            got = outcome_of(lambda: (ecm_input(kernel, WARM, mode), scale(kernel, WARM, mode, None, "round-robin", penalty)))
            assert got == outcome_of(
                lambda: (ecm_input(kernel, cold, mode), scale(kernel, cold, mode, None, "round-robin", penalty))
            )
            if not isinstance(got, str):
                assert got[0] == oracle_input(kernel, cold, cold.resolve_mode(mode))


def test_kernels_that_differ_only_in_element_size_share_an_input_but_not_a_curve():
    machine = replace(HASWELL)
    wide, narrow = (replace(KERNELS["stream_triad"], element_bytes=size) for size in (8, 4))
    assert ecm_input(wide, machine) is ecm_input(narrow, machine)
    assert len(machine._inputs) == 1
    curves = [scale(kernel, machine, max_cores=1) for kernel in (wide, narrow)]
    assert len(machine._curves) == 2
    assert curves[1].points[0].performance_mups == 2 * curves[0].points[0].performance_mups
    assert curves == [scale(kernel, replace(HASWELL), max_cores=1) for kernel in (wide, narrow)]


def test_a_full_input_memo_is_cleared():
    """The memo holds at most MEMO_ENTRIES inputs: the one after that
    clears it, and answers stay those of a cold machine."""
    machine = replace(HASWELL)
    inputs = machine._inputs
    sizes = []
    for t_nol in range(1, MEMO_ENTRIES // 2 + 2):
        kernel = KernelModel("k", (Stream("a", "read"),), 8, (UopGroup(2 * t_nol, "load", "base-index-offset"),))
        for mode in ("cod", "noncod"):
            inp = ecm_input(kernel, machine, mode)
            sizes.append(len(inputs))
            assert inp == oracle_input(kernel, machine, mode)
    assert max(sizes) == MEMO_ENTRIES
    assert sizes[MEMO_ENTRIES - 1:] == [MEMO_ENTRIES, 1, 2]
    assert (inputs.misses, inputs.clears) == (MEMO_ENTRIES + 2, 1)
