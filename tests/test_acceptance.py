"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output; every tolerance is pinned here."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from ecmkit import (
    apply_penalty,
    bandwidth_ceiling,
    builtin_haswell,
    builtin_kernels,
    build_nol_problem,
    core_timing,
    ecm_input,
    format_cycles,
    format_ecm,
    frontend_bound,
    min_cycles,
    model_error,
    nt_volume_ratio,
    parse_ecm,
    predict,
    scale,
    stream_signature,
    traffic,
)
from ecmkit.cli import run as cli_run
from ecmkit.kernels import KernelModel, Stream
from ecmkit.model import ECMInput, ECMPrediction
from ecmkit.reference import REFERENCE_KERNELS, reference_cells, reference_measurements, reference_table

from oracles import brute_force_min_cycles, cache_replay_traffic

HASWELL = builtin_haswell()
KERNELS = builtin_kernels()


def _ok(message):
    print(f"PASS: {message}")


def test_acceptance_single_core_inputs_exact():
    """Five-component inputs match the reference table exactly, in under 1 s."""
    started = time.perf_counter()
    inputs = {name: ecm_input(KERNELS[name], HASWELL, "cod") for name in REFERENCE_KERNELS}
    elapsed = time.perf_counter() - started
    expected_l3mem = {"ddot": "9.1", "load": "4.5", "store": "12.5", "update": "12.5", "copy": "16.8", "stream_triad": "21.7", "schoenauer_triad": "26.5"}
    for name, inp in inputs.items():
        cells, _ = reference_cells(name)
        assert [format_cycles(c) for c in inp.cells()] == cells, name
        assert format_cycles(inp.t_l3mem) == expected_l3mem[name]
        for cell in (inp.t_ol, inp.t_nol, inp.t_l1l2, inp.t_l2l3):
            assert cell.denominator == 1, name
    assert elapsed < 1.0, f"inputs took {elapsed:.3f}s"
    _ok(f"model inputs: 7/7 kernels exact ({elapsed * 1000:.0f} ms)")


def test_acceptance_single_core_predictions_exact():
    """Four-component predictions match the reference table; validate exits 0."""
    for name in REFERENCE_KERNELS:
        _, cells = reference_cells(name)
        pred = predict(ecm_input(KERNELS[name], HASWELL, "cod"))
        assert [format_cycles(c) for c in pred.cells()] == cells, name
    assert format_ecm(predict(ecm_input(KERNELS["ddot"], HASWELL, "cod"))) == "{2 \\ 4 \\ 8 \\ 17.1}"
    assert format_ecm(predict(ecm_input(KERNELS["copy"], HASWELL, "cod"))) == "{2 \\ 5 \\ 11 \\ 27.8}"
    assert format_ecm(predict(ecm_input(KERNELS["schoenauer_triad"], HASWELL, "cod"))) == "{4 \\ 9 \\ 19 \\ 45.5}"
    assert cli_run(["validate"], out=_NullWriter()) == 0
    _ok("model predictions: 7/7 kernels exact, validate exits 0")


class _NullWriter:
    def write(self, _):
        return 0


def test_acceptance_port_scheduler():
    """Addressing cycles 4 vs 3, update charged to the overlap component, and
    agreement with the exhaustive oracle on 1000 random instances."""
    assert min_cycles(build_nol_problem(KERNELS["schoenauer_triad"], HASWELL)) == 4
    assert min_cycles(build_nol_problem(KERNELS["schoenauer_triad_opt"], HASWELL)) == 3
    timing = core_timing(KERNELS["update"], HASWELL)
    assert timing.t_ol == 2 and frontend_bound(KERNELS["update"], HASWELL) == 2

    rng = random.Random(0xEC4)
    mismatches = 0
    for _ in range(1000):
        n_ports = rng.randint(1, 8)
        universe = rng.sample(range(8), n_ports)
        sets = [
            frozenset(rng.sample(universe, rng.randint(1, n_ports)))
            for _ in range(rng.randint(0, 10))
        ]
        if min_cycles(Counter(sets)) != brute_force_min_cycles(sets):
            mismatches += 1
    assert mismatches == 0
    _ok("port scheduler: 4c/3c addressing, update T_OL=2, 1000/1000 oracle agreement")


def test_acceptance_traffic():
    """Boundary cache-line counts, non-temporal reductions, and replay-oracle
    agreement on synthetic 1-3 stream loops."""
    expected = {"ddot": 2, "load": 1, "store": 2, "update": 2, "copy": 3, "stream_triad": 4, "schoenauer_triad": 5}
    for name, cls in expected.items():
        prof = traffic(KERNELS[name])
        assert (prof.cls_l1l2, prof.cls_l2l3, prof.cls_l3mem) == (cls, cls, cls), name

    for base in ("stream_triad", "schoenauer_triad"):
        plain = traffic(KERNELS[base])
        nt = traffic(KERNELS[f"{base}_nt"])
        assert nt.cls_l3mem == plain.cls_l3mem - 1
        assert nt.cls_l1l2 == plain.cls_l1l2 - 2
        assert stream_signature(KERNELS[f"{base}_nt"])[2] == 1

    checked = 0
    for n_streams in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(("read", "write", "readwrite", "nt"), n_streams):
            streams = []
            for i, kind in enumerate(combo):
                name = chr(ord("A") + i)
                if kind == "nt":
                    streams.append(Stream(name, "write", nontemporal=True))
                else:
                    streams.append(Stream(name, kind if kind != "write" else "write"))
            prof = traffic(KernelModel("synthetic", tuple(streams), 8, ()))
            assert cache_replay_traffic(list(combo)) == (prof.cls_l1l2, prof.cls_l2l3, prof.cls_l3mem), combo
            checked += 1
    _ok(f"traffic: reference counts 2/1/2/2/3/4/5, NT reductions, {checked} replay cases agree")


def test_acceptance_penalty():
    """ddot gains 2c at L3 and 4c at memory; adjusted memory predictions do not
    move away from the measured values for ddot and load."""
    pred = predict(ecm_input(KERNELS["ddot"], HASWELL, "cod"))
    adjusted = apply_penalty(pred, KERNELS["ddot"])
    assert adjusted.t_l3 == 10
    assert format_cycles(adjusted.t_mem) == "21.1"
    for name in ("ddot", "load"):
        raw = predict(ecm_input(KERNELS[name], HASWELL, "cod"))
        adj = apply_penalty(raw, KERNELS[name])
        measured = reference_measurements()[name].levels["MEM"]
        assert abs(adj.t_mem - measured) <= abs(raw.t_mem - measured), name
    _ok("penalty: ddot L3=10, Mem=21.1; memory error non-increasing for ddot and load")


def test_acceptance_model_error_band():
    """Computed percent errors stay within 5 percentage points of the reference
    error cells (the band absorbs their mixed denominator convention)."""
    worst = 0
    for name in REFERENCE_KERNELS:
        pred = predict(ecm_input(KERNELS[name], HASWELL, "cod"))
        errors = model_error(pred, reference_measurements()[name])
        for level, expected in reference_table()["kernels"][name]["model_error_pct"].items():
            deviation = abs(errors.absolute_pct[level] - expected)
            worst = max(worst, deviation)
            assert deviation <= 5, (name, level, errors.absolute_pct[level], expected)
    _ok(f"model error: 28/28 cells within +/-5 points of reference (worst {worst})")


def test_acceptance_scaling():
    """Exact ddot chip ceiling, stream-triad domain ceiling near the measured
    value, and exact non-temporal volume ratios."""
    ddot = bandwidth_ceiling(KERNELS["ddot"], HASWELL, "cod")
    assert ddot.per_chip_mups == 4050  # analytic, exact
    assert abs(float(ddot.per_chip_mups) - 4000) / 4000 < 0.05
    curve = scale(KERNELS["ddot"], HASWELL, mode="cod", max_cores=14)
    assert curve.ceiling_mups == 4050

    triad = bandwidth_ceiling(KERNELS["stream_triad"], HASWELL, "cod")
    assert abs(float(triad.per_domain_mups) - 831) / 831 < 0.02

    assert nt_volume_ratio(KERNELS["stream_triad"]) == Fraction(4, 3)
    assert nt_volume_ratio(KERNELS["schoenauer_triad"]) == Fraction(5, 4)
    _ok("scaling: ddot ceiling 4050 MUp/s, triad domain ceiling within 2% of 831, NT ratios 4/3 and 5/4")


def test_acceptance_randomized_properties():
    """Prediction monotonicity, shorthand round-trip, scheduler monotonicity,
    stream-permutation invariance; seeded randomized suites with zero failures."""
    rng = random.Random(0xACC)

    for _ in range(300):
        cells = [Fraction(rng.randint(0, 400), rng.choice((1, 2, 4, 5, 10))) for _ in range(5)]
        pred = predict(ECMInput(*cells))
        assert pred.t_core <= pred.t_l2 <= pred.t_l3 <= pred.t_mem

    for _ in range(300):
        value = ECMInput(*(Fraction(rng.randint(0, 500), 10) for _ in range(5)))
        assert parse_ecm(format_ecm(value)) == value
        pred_value = ECMPrediction(*(Fraction(rng.randint(0, 500), 10) for _ in range(4)))
        assert parse_ecm(format_ecm(pred_value)) == pred_value

    for _ in range(300):
        universe = rng.sample(range(8), rng.randint(1, 8))
        sets = [frozenset(rng.sample(universe, rng.randint(1, len(universe)))) for _ in range(rng.randint(1, 8))]
        base = min_cycles(Counter(sets))
        assert min_cycles(Counter(sets + [frozenset(rng.sample(universe, 1))])) >= base
        index = rng.randrange(len(sets))
        widened_sets = list(sets)
        widened_sets[index] = widened_sets[index] | {rng.choice(universe)}
        assert min_cycles(Counter(widened_sets)) <= base

    for name, kernel in KERNELS.items():
        base_traffic = traffic(kernel)
        base_signature = stream_signature(kernel)
        streams = list(kernel.streams)
        for _ in range(10):
            rng.shuffle(streams)
            shuffled = KernelModel(name, tuple(streams), kernel.element_bytes, kernel.uops)
            assert traffic(shuffled) == base_traffic
            assert stream_signature(shuffled) == base_signature

    _ok("properties: monotonicity, round-trip and permutation suites, zero failures")
