"""The benchmark's own tests: short runs pass their checks, seeds reproduce
draws, counters and digests, and traced spans nest."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer, self_ns
from workloads import FRESH_FACTORS, CliProbe, Fresh

SHORT_OPS = {"sweep": 80, "fresh": 8}


def bench(workload: str, seed: int = 1, ops: int | None = None, trace: int = 0) -> dict:
    ops = SHORT_OPS[workload] if ops is None else ops
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "30", "--trace", str(trace)]
    argv += ["--ops", str(ops), "--setup-samples", "1"]
    return run.benchmark(run.parse_args(argv))


def counters(result) -> list:
    return [(entry["op"], entry["counters"], entry.get("layer_calls")) for entry in result["inputs"]]


@pytest.mark.parametrize("workload", sorted(SHORT_OPS))
def test_short_run_passes_every_check(workload):
    result = bench(workload)
    assert result["errors"] == []
    assert result["attempted"] == SHORT_OPS[workload]
    assert result["correct"] and result["failed"] == 0 and result["error_rate"] == 0
    for metric in run.END_TO_END:
        assert result["end_to_end"][metric]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "fresh"])
def test_same_seed_gives_identical_draw_counters_and_digest(workload):
    first, second = bench(workload, seed=7), bench(workload, seed=7)
    assert first["draw"] == second["draw"]
    assert counters(first) == counters(second)
    assert first["digest"] == second["digest"]
    assert first["model_error_abs_pct"] == second["model_error_abs_pct"]


def test_sweep_digest_does_not_depend_on_seed_order():
    first, second = bench("sweep", seed=1), bench("sweep", seed=2)
    assert first["draw"] != second["draw"]
    assert first["digest"] == second["digest"]


def test_different_seed_changes_fresh_draw_but_not_factor_mix(tmp_path):
    import ecmkit

    fresh = Fresh(ecmkit, tmp_path)
    first, second = fresh.draw(random.Random(1)), fresh.draw(random.Random(2))
    assert first != second
    assert sorted(first, key=fresh.label) == sorted(second, key=fresh.label) == sorted(fresh.keys, key=fresh.label)
    assert len(set(first)) == len(first) == 160
    for prefix in range(len(FRESH_FACTORS), len(first) + 1, len(FRESH_FACTORS)):
        for draw in (first, second):
            mix = Counter(key.factor for key in draw[:prefix])
            assert set(mix.values()) == {prefix // len(FRESH_FACTORS)}


def test_fresh_pass_starts_from_a_new_import(tmp_path):
    import ecmkit

    loaded = {n: m for n, m in sys.modules.items() if n == "ecmkit" or n.startswith("ecmkit.")}
    try:
        fresh = Fresh(ecmkit, tmp_path)
        key = fresh.keys[0]
        first = fresh.cells(key, fresh.run_op(key))
        fresh.new_pass()
        assert fresh.ek is not ecmkit
        tracer = Tracer()
        tracer.install()
        tracer.enabled, tracer.op = True, 0
        try:
            output = fresh.run_op(key)
        finally:
            tracer.uninstall()
        assert "scheduler.core_timing" in {span[0] for span in tracer.spans}
        assert fresh.check(key, output) == []
        assert fresh.cells(key, output) == first
    finally:
        for name in [n for n in sys.modules if n == "ecmkit" or n.startswith("ecmkit.")]:
            del sys.modules[name]
        sys.modules.update(loaded)


def test_traced_spans_nest_and_self_times_add_up_to_each_op():
    result = bench("sweep", ops=24, trace=1)
    assert result["correct"], result["errors"]
    spans = result["spans"]
    for name, start, end, parent, op, _work in spans:
        assert start <= end
        if parent is None:
            assert name == "op"
        else:
            p_name, p_start, p_end, _p_parent, p_op, _ = spans[parent]
            assert p_start <= start and end <= p_end and p_op == op
    roots = {op: end - start for name, start, end, parent, op, _ in spans if parent is None}
    assert sorted(roots) == list(range(24))
    own = [0] * 24
    for span, ns in zip(spans, self_ns(spans)):
        own[span[4]] += ns
    for op, elapsed in enumerate(result["op_ns"]):
        # self times partition the op's span exactly; the span itself sits
        # inside the op's wall time, the gap being the root wrapper's cost
        assert own[op] == roots[op]
        assert roots[op] <= elapsed < roots[op] + 1_000_000
    for entry in result["inputs"]:
        assert entry["layer_calls"]["scheduler.core_timing"] == 2 * entry["runs"]
    assert_per_layer_above_zero(result)


def test_traced_fresh_run_reports_every_per_layer_metric_above_zero():
    result = bench("fresh", trace=1)
    assert result["correct"], result["errors"]
    assert_per_layer_above_zero(result)


def assert_per_layer_above_zero(result):
    """Every per-layer figure BENCHMARK.json names reads above zero, so
    each workload reaches every layer it reports."""
    for metric in run.PER_LAYER_REPORTED:
        assert result["per_layer"][metric]["value"] > 0, metric


def test_peak_rss_does_not_grow_with_the_ops_run():
    """The benchmark keeps aggregates per input, not a record per op, so its
    own memory does not grow with the ops run. The allocator's high-water
    mark settles about 0.2 MB above a one-pass run's; a record per op added
    0.4 MB over these 720 extra ops."""

    def peak_rss_mb(ops: int) -> float:
        argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", "sweep", "--seed", "1", "--seconds", "1"]
        argv += ["--ops", str(ops), "--setup-samples", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout.splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]

    assert peak_rss_mb(800) == pytest.approx(peak_rss_mb(80), abs=0.25)


def test_cli_probe_compares_each_subprocess_with_the_in_process_run(tmp_path):
    import ecmkit

    probe = CliProbe(ecmkit, tmp_path / "cli")
    assert len(probe.argvs) == 48
    probe.argvs = probe.argvs[:4]
    errors, output_bytes = probe.run(Tracer())
    assert errors == [] and output_bytes > 0
    probe.cli = SimpleNamespace(run=lambda argv, out: 0)
    errors, _ = probe.run(Tracer())
    assert len(errors) == 4 and all("stdout differs" in e for e in errors)


def test_host_speed_probes_for_its_share_and_scales_every_time():
    speed = run.HostSpeed(0.5)
    speed.after(20_000_000)
    assert speed.unit_ns >= 10_000_000 and speed.units >= 1
    assert speed.factor() == pytest.approx(run.REFERENCE_UNIT_NS * speed.units / speed.unit_ns)
    stats = {"a": run.InputStats("a", runs=2, total_ms=4.0), "b": run.InputStats("b", runs=1, total_ms=6.0)}
    plain, doubled = run.timing_figures(stats, 1.0), run.timing_figures(stats, 2.0)
    assert plain["ops_per_s"] == pytest.approx(2 / 8.0 * 1e3)
    assert doubled["ops_per_s"] == pytest.approx(plain["ops_per_s"] / 2)
    assert doubled["latency_ms_p50"] == pytest.approx(2 * plain["latency_ms_p50"])


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_REPORTED)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
